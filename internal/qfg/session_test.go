package qfg

import (
	"math"
	"testing"

	"templar/internal/fragment"
	"templar/internal/sqlparse"
)

func sessionQueries(t *testing.T) []*sqlparse.Query {
	t.Helper()
	srcs := []string{
		"SELECT j.name FROM journal j",
		"SELECT p.title FROM publication p WHERE p.year > 2000",
		"SELECT p.title FROM publication p WHERE p.year > 1995",
	}
	out := make([]*sqlparse.Query, len(srcs))
	for i, s := range srcs {
		q := sqlparse.MustParse(s)
		if err := q.Resolve(nil); err != nil {
			t.Fatal(err)
		}
		out[i] = q
	}
	return out
}

// sessionEdges counts the pairs carrying session weight.
func sessionEdges(s *Snapshot) int {
	n := 0
	for _, w := range s.Parts().Sess {
		if w != 0 {
			n++
		}
	}
	return n / 2
}

func TestAddSessionCrossQueryEvidence(t *testing.T) {
	l := emptyLive(t, fragment.NoConstOp)
	if err := l.AddSession(sessionQueries(t), 1, 0.5); err != nil {
		t.Fatal(err)
	}
	g := l.CurrentSnapshot()
	jname := fragment.Attr("journal.name", "")
	title := fragment.Attr("publication.title", "")
	// j.name (query 0) and p.title (queries 1 and 2): decay^1 + decay^2.
	want := 0.5 + 0.25
	if got := g.SessionCoOccurrence(jname, title); math.Abs(got-want) > 1e-12 {
		t.Fatalf("session co-occurrence = %v, want %v", got, want)
	}
	// Within-query counts accumulate as usual.
	if g.Occurrences(title) != 2 || g.Occurrences(jname) != 1 {
		t.Fatalf("nv = %d / %d", g.Occurrences(title), g.Occurrences(jname))
	}
	// Dice blends session evidence: pure ne(jname,title) = 0, so the whole
	// coefficient comes from the session: 2*0.75/(1+2).
	if got := g.Dice(jname, title); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("session Dice = %v, want 0.5", got)
	}
}

func TestAddSessionNoEffectWithoutSessions(t *testing.T) {
	// Graphs built purely with AddQuery behave exactly as Definition 6.
	g := buildFigure3(t, fragment.NoConstOp)
	if sessionEdges(g) != 0 {
		t.Fatal("no session edges expected")
	}
	title := fragment.Attr("publication.title", "")
	pub := fragment.Relation("publication")
	if d := g.Dice(title, pub); math.Abs(d-1) > 1e-12 {
		t.Fatalf("Dice without sessions = %v", d)
	}
}

func TestAddSessionValidation(t *testing.T) {
	l := emptyLive(t, fragment.NoConstOp)
	qs := sessionQueries(t)
	before := l.CurrentSnapshot()
	if err := l.AddSession(qs, 1, 0); err == nil {
		t.Fatal("decay 0 must be rejected")
	}
	if err := l.AddSession(qs, 1, 1.5); err == nil {
		t.Fatal("decay > 1 must be rejected")
	}
	if l.CurrentSnapshot() != before {
		t.Fatal("a rejected session must publish nothing")
	}
	if err := l.AddSession(qs, 0, 0.5); err != nil {
		t.Fatal("zero count must be a no-op, not an error")
	}
	if l.CurrentSnapshot().Queries() != 0 {
		t.Fatal("zero-count session must not add queries")
	}
}

func TestSessionDiceClamped(t *testing.T) {
	// Heavy session evidence cannot push Dice past 1.
	l := emptyLive(t, fragment.NoConstOp)
	qs := sessionQueries(t)[:2]
	for i := 0; i < 10; i++ {
		if err := l.AddSession(qs, 1, 1.0); err != nil {
			t.Fatal(err)
		}
	}
	g := l.CurrentSnapshot()
	jname := fragment.Attr("journal.name", "")
	title := fragment.Attr("publication.title", "")
	if d := g.Dice(jname, title); d > 1 {
		t.Fatalf("Dice = %v > 1", d)
	}
}

func TestSessionIdenticalFragmentsSkipped(t *testing.T) {
	// The same fragment appearing in two session queries must not gain
	// self co-occurrence.
	l := emptyLive(t, fragment.NoConstOp)
	qs := sessionQueries(t)[1:] // two p.title queries
	if err := l.AddSession(qs, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	g := l.CurrentSnapshot()
	title := fragment.Attr("publication.title", "")
	if got := g.SessionCoOccurrence(title, title); got != 0 {
		t.Fatalf("self session co-occurrence = %v", got)
	}
	// But the NoConstOp year fragments are identical across both queries,
	// so (title, year) still accumulates via the cross pairs.
	year := fragment.Fragment{Context: fragment.Where, Expr: "publication.year ?op ?val"}
	if got := g.SessionCoOccurrence(title, year); got <= 0 {
		t.Fatalf("cross evidence = %v", got)
	}
}
