// Sessions: the paper's §VIII future work, implemented. Queries issued in
// one user session serve a single information need, so fragments from
// different queries of the session carry (decayed) co-occurrence evidence.
// This example shows session evidence teaching the QFG a keyword mapping
// that within-query co-occurrence alone cannot: the session pairs journal
// names with publication titles even though no single query contains both.
package main

import (
	"fmt"
	"log"

	"templar/internal/fragment"
	"templar/internal/qfg"
	"templar/internal/sqlparse"
)

func main() {
	// A user session: the user first looks up a journal, then drills into
	// its publications — two queries, one intent.
	session := []string{
		"SELECT j.name FROM journal j WHERE j.name = 'TKDE'",
		"SELECT p.title FROM publication p, journal j WHERE j.name = 'TKDE' AND p.jid = j.jid",
	}
	queries := make([]*sqlparse.Query, len(session))
	for i, src := range session {
		q, err := sqlparse.Parse(src)
		must(err)
		must(q.Resolve(nil))
		queries[i] = q
	}

	jname := fragment.Attr("journal.name", "")
	title := fragment.Attr("publication.title", "")

	// Without sessions: each query folded independently.
	empty, err := qfg.Build(nil, fragment.NoConstOp)
	must(err)
	plainLog := qfg.NewLive(empty)
	plainLog.AddQueries(queries, nil)
	plain := plainLog.CurrentSnapshot()
	fmt.Println("Definition 6 graph (queries folded independently):")
	fmt.Printf("  ne(j.name SELECT, p.title SELECT) = %d\n", plain.CoOccurrences(jname, title))
	fmt.Printf("  Dice = %.3f\n\n", plain.Dice(jname, title))

	// With sessions: the same two queries folded as one session.
	empty, err = qfg.Build(nil, fragment.NoConstOp)
	must(err)
	sessLog := qfg.NewLive(empty)
	must(sessLog.AddSession(queries, 1, 0.5))
	sess := sessLog.CurrentSnapshot()
	fmt.Println("Session-aware graph (decay 0.5):")
	fmt.Printf("  within-query ne            = %d\n", sess.CoOccurrences(jname, title))
	fmt.Printf("  cross-query session weight = %.3f\n", sess.SessionCoOccurrence(jname, title))
	fmt.Printf("  blended Dice               = %.3f\n\n", sess.Dice(jname, title))

	fmt.Println("The session taught the graph that journal names and paper titles")
	fmt.Println("belong to one information need — evidence no single query carries.")
	fmt.Println("See EXPERIMENTS.md for the end-to-end effect (helps keyword mapping,")
	fmt.Println("dilutes join-path discrimination).")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
