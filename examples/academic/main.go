// Academic: the paper's running example on the full MAS benchmark. It
// replays Examples 1–3: the baseline Pipeline system maps "papers" to
// journal and takes a short-but-wrong join path; the Templar-augmented
// Pipeline+ uses the SQL query log to map "papers" to publication.title and
// to route the join through the keyword junctions.
package main

import (
	"fmt"
	"log"

	"templar/internal/datasets"
	"templar/internal/embedding"
	"templar/internal/fragment"
	"templar/internal/keyword"
	"templar/internal/nlidb"
	"templar/internal/qfg"
	"templar/internal/sqlparse"
)

func main() {
	ds := datasets.MAS()
	fmt.Printf("MAS benchmark: %d relations, %d tasks\n\n", ds.DB.Schema().Stats().Relations, len(ds.Tasks))

	// Build the QFG from every benchmark gold query except the one we are
	// about to translate (leave-one-out, mirroring the evaluation).
	const taskID = "mas/papersInDomain/00"
	var task datasets.Task
	var entries []sqlparse.LogEntry
	for _, t := range ds.Tasks {
		if t.ID == taskID {
			task = t
			continue
		}
		q, err := sqlparse.Parse(t.Gold)
		must(err)
		entries = append(entries, sqlparse.LogEntry{Query: q, Count: 1})
	}
	graph, err := qfg.Build(entries, fragment.NoConstOp)
	must(err)

	fmt.Printf("NLQ: %s\n\n", task.NLQ)
	model := embedding.New()
	opts := keyword.Options{Obscurity: fragment.NoConstOp}

	// Example 1: the vanilla pipeline picks journal and a short join path.
	base := nlidb.NewSystem("Pipeline", ds.DB, model, nlidb.Config{Keyword: opts})
	trBase, err := base.Translate(task.NLQ, task.Hazard, task.Keywords)
	must(err)
	fmt.Println("Pipeline (Example 1 — the mistake):")
	fmt.Printf("  top mapping: %s\n", trBase.Config.Mappings[0])
	fmt.Printf("  join path:   %s\n", trBase.Path)
	fmt.Printf("  SQL:         %s\n\n", trBase.Rendered)

	// Example 3: Templar's log evidence corrects both decisions.
	plus := nlidb.NewSystem("Pipeline+", ds.DB, model, nlidb.Config{Keyword: opts, QFG: graph, LogJoin: true})
	trPlus, err := plus.Translate(task.NLQ, task.Hazard, task.Keywords)
	must(err)
	fmt.Println("Pipeline+ (Example 3 — the fix):")
	fmt.Printf("  top mapping: %s\n", trPlus.Config.Mappings[0])
	fmt.Printf("  join path:   %s\n", trPlus.Path)
	fmt.Printf("  SQL:         %s\n\n", trPlus.Rendered)

	fmt.Printf("Gold:          %s\n", task.Gold)
	fmt.Printf("Pipeline  matches gold: %v\n", trBase.SQL == task.GoldCanonical && !trBase.Tie)
	fmt.Printf("Pipeline+ matches gold: %v\n\n", trPlus.SQL == task.GoldCanonical && !trPlus.Tie)

	// Show the log evidence behind the flip: Dice co-occurrence of each
	// candidate SELECT fragment with the domain-name predicate.
	pred := fragment.Fragment{Context: fragment.Where, Expr: "domain.name ?op ?val"}
	for _, cand := range []fragment.Fragment{
		fragment.Attr("publication.title", ""),
		fragment.Attr("journal.name", ""),
	} {
		fmt.Printf("Dice(%v, %v) = %.3f\n", cand, pred, graph.Dice(cand, pred))
	}

	// Execute the corrected SQL on the populated database.
	q, err := sqlparse.Parse(trPlus.Rendered)
	must(err)
	res, err := ds.DB.Execute(q)
	must(err)
	fmt.Printf("\nExecuting the Pipeline+ SQL returns %d rows.\n", len(res.Rows))
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
