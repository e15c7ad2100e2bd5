package qfg

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"templar/internal/fragment"
	"templar/internal/sqlparse"
)

// figure3Log is the example query log from the paper's Figure 3a.
const figure3Log = `
25x: SELECT j.name FROM journal j
5x: SELECT p.title FROM publication p WHERE p.year > 2003
3x: SELECT p.title FROM journal j, publication p WHERE j.name = 'TMC' AND p.pid = j.pid
`

func buildFigure3(t testing.TB, ob fragment.Obscurity) *Snapshot {
	t.Helper()
	entries, err := sqlparse.ParseLog(figure3Log)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Build(entries, ob)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// figure3Oracle folds the Figure 3a log into the map-backed reference.
func figure3Oracle(t testing.TB, ob fragment.Obscurity) *MapGraph {
	t.Helper()
	entries, err := sqlparse.ParseLog(figure3Log)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildMapGraph(entries, ob)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFigure3bOccurrences(t *testing.T) {
	// Figure 3b: 25x j.name (SELECT), 8x p.title, 28x journal,
	// 8x publication, 5x p.year ?op ?val, 3x j.name ?op ?val.
	g := buildFigure3(t, fragment.NoConstOp)
	checks := []struct {
		f    fragment.Fragment
		want int
	}{
		{fragment.Attr("journal.name", ""), 25},
		{fragment.Attr("publication.title", ""), 8},
		{fragment.Relation("journal"), 28},
		{fragment.Relation("publication"), 8},
		{fragment.Pred("publication.year", ">", sqlparse.Value{Kind: sqlparse.NumberVal, N: 2003}, fragment.NoConstOp), 5},
		{fragment.Pred("journal.name", "=", sqlparse.Value{Kind: sqlparse.StringVal, S: "TMC"}, fragment.NoConstOp), 3},
	}
	for _, c := range checks {
		if got := g.Occurrences(c.f); got != c.want {
			t.Errorf("nv(%v) = %d, want %d", c.f, got, c.want)
		}
	}
	if g.Queries() != 33 {
		t.Errorf("Queries = %d, want 33", g.Queries())
	}
}

func TestFigure3cCoOccurrences(t *testing.T) {
	// Figure 3c edge weights: p.title–publication 8, p.title–p.year?op?val 5,
	// p.title–journal 3, journal–j.name?op?val 3, journal–publication 3.
	g := buildFigure3(t, fragment.NoConstOp)
	title := fragment.Attr("publication.title", "")
	pub := fragment.Relation("publication")
	jour := fragment.Relation("journal")
	year := fragment.Pred("publication.year", ">", sqlparse.Value{Kind: sqlparse.NumberVal, N: 2003}, fragment.NoConstOp)
	jname := fragment.Pred("journal.name", "=", sqlparse.Value{Kind: sqlparse.StringVal, S: "TMC"}, fragment.NoConstOp)
	checks := []struct {
		a, b fragment.Fragment
		want int
	}{
		{title, pub, 8},
		{title, year, 5},
		{title, jour, 3},
		{jour, jname, 3},
		{jour, pub, 3},
		{year, jname, 0}, // never co-occur
	}
	for _, c := range checks {
		if got := g.CoOccurrences(c.a, c.b); got != c.want {
			t.Errorf("ne(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
		// Symmetry.
		if got := g.CoOccurrences(c.b, c.a); got != c.want {
			t.Errorf("ne symmetric (%v, %v) = %d, want %d", c.b, c.a, got, c.want)
		}
	}
}

func TestDiceDefinition(t *testing.T) {
	g := buildFigure3(t, fragment.NoConstOp)
	title := fragment.Attr("publication.title", "")
	pub := fragment.Relation("publication")
	// Dice = 2*8 / (8+8) = 1: p.title and publication always co-occur.
	if d := g.Dice(title, pub); math.Abs(d-1) > 1e-12 {
		t.Errorf("Dice(title, publication) = %v, want 1", d)
	}
	jour := fragment.Relation("journal")
	// Dice(journal, publication) = 2*3/(28+8) = 6/36.
	if d := g.Dice(jour, pub); math.Abs(d-6.0/36.0) > 1e-12 {
		t.Errorf("Dice(journal, publication) = %v, want %v", d, 6.0/36.0)
	}
	if d := g.DiceRelations("journal", "publication"); math.Abs(d-6.0/36.0) > 1e-12 {
		t.Errorf("DiceRelations = %v", d)
	}
}

func TestDiceUnknownFragmentsZero(t *testing.T) {
	g := buildFigure3(t, fragment.NoConstOp)
	unknown := fragment.Relation("nonexistent")
	if d := g.Dice(unknown, unknown); d != 0 {
		t.Errorf("Dice(unknown, unknown) = %v", d)
	}
	if d := g.DiceRelations("x", "y"); d != 0 {
		t.Errorf("DiceRelations unknown = %v", d)
	}
}

func TestDiceSelfIsOne(t *testing.T) {
	g := buildFigure3(t, fragment.NoConstOp)
	jour := fragment.Relation("journal")
	if d := g.Dice(jour, jour); math.Abs(d-1) > 1e-12 {
		t.Errorf("Dice(x, x) = %v, want 1", d)
	}
	if g.CoOccurrences(jour, jour) != g.Occurrences(jour) {
		t.Error("ne(x,x) must equal nv(x)")
	}
}

func TestObscurityAffectsMatching(t *testing.T) {
	// Two queries differing only in the constant collapse to the same WHERE
	// fragment at NoConst but not at Full.
	log := `
SELECT p.title FROM publication p WHERE p.year > 2000
SELECT p.title FROM publication p WHERE p.year > 1995
`
	entries, err := sqlparse.ParseLog(log)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Build(entries, fragment.Full)
	if err != nil {
		t.Fatal(err)
	}
	entries2, _ := sqlparse.ParseLog(log)
	noconst, err := Build(entries2, fragment.NoConst)
	if err != nil {
		t.Fatal(err)
	}
	fullFrag := fragment.Pred("publication.year", ">", sqlparse.Value{Kind: sqlparse.NumberVal, N: 2000}, fragment.Full)
	if got := full.Occurrences(fullFrag); got != 1 {
		t.Errorf("Full nv = %d, want 1", got)
	}
	ncFrag := fragment.Pred("publication.year", ">", sqlparse.Value{}, fragment.NoConst)
	if got := noconst.Occurrences(ncFrag); got != 2 {
		t.Errorf("NoConst nv = %d, want 2", got)
	}
}

func TestVerticesEdgesCounts(t *testing.T) {
	g := buildFigure3(t, fragment.NoConstOp)
	if g.Vertices() != 6 {
		t.Errorf("Vertices = %d, want 6 (Figure 3b)", g.Vertices())
	}
	// Edges from Figure 3c: title-pub, title-year, title-jour, jour-jname,
	// jour-pub, pub-jname, title-jname, pub-year... enumerate: query 2 has
	// {title, pub, year} -> 3 pairs; query 3 has {title, jour, pub, jname}
	// -> 6 pairs; query 1 has {j.name(SELECT), journal} -> 1 pair.
	// Overlap: none between the pair sets except... q2 pairs:
	// (title,pub),(title,year),(pub,year); q3: (title,jour),(title,pub),
	// (title,jname),(jour,pub),(jour,jname),(pub,jname); q1: (jnameSel,jour).
	// Distinct = 3 + 6 + 1 - 1 shared (title,pub) = 9.
	if g.Edges() != 9 {
		t.Errorf("Edges = %d, want 9", g.Edges())
	}
}

// emptyLive returns a Live over an empty log.
func emptyLive(t testing.TB, ob fragment.Obscurity) *Live {
	t.Helper()
	s, err := Build(nil, ob)
	if err != nil {
		t.Fatal(err)
	}
	return NewLive(s)
}

func TestAddQueryZeroCountIgnored(t *testing.T) {
	l := emptyLive(t, fragment.Full)
	q := sqlparse.MustParse("SELECT j.name FROM journal j")
	_ = q.Resolve(nil)
	l.AddQuery(q, 0)
	l.AddQuery(q, -5)
	if s := l.CurrentSnapshot(); s.Queries() != 0 || s.Vertices() != 0 {
		t.Fatal("zero/negative counts must be ignored")
	}
}

func TestTopOrdering(t *testing.T) {
	g := buildFigure3(t, fragment.NoConstOp)
	top := g.Top(2)
	if len(top) != 2 {
		t.Fatalf("Top(2) len = %d", len(top))
	}
	if top[0].Fragment != (fragment.Fragment{Context: fragment.From, Expr: "journal"}) || top[0].Count != 28 {
		t.Errorf("Top[0] = %+v", top[0])
	}
	if top[1].Count != 25 {
		t.Errorf("Top[1] = %+v", top[1])
	}
	all := g.Top(1000)
	if len(all) != g.Vertices() {
		t.Errorf("Top(1000) = %d, want %d", len(all), g.Vertices())
	}
	if want := figure3Oracle(t, fragment.NoConstOp).Top(1000); !reflect.DeepEqual(all, want) {
		t.Errorf("Top = %v, reference %v", all, want)
	}
}

func TestNeighborsSortedByDice(t *testing.T) {
	g := buildFigure3(t, fragment.NoConstOp)
	title := fragment.Attr("publication.title", "")
	nb := g.Neighbors(title)
	if len(nb) == 0 {
		t.Fatal("no neighbors for p.title")
	}
	for i := 1; i < len(nb); i++ {
		if nb[i].Dice > nb[i-1].Dice {
			t.Fatalf("neighbors not sorted by Dice: %v", nb)
		}
	}
	if nb[0].Fragment != fragment.Relation("publication") {
		t.Errorf("strongest neighbor = %v, want publication", nb[0].Fragment)
	}
	if want := figure3Oracle(t, fragment.NoConstOp).Neighbors(title); !reflect.DeepEqual(nb, want) {
		t.Errorf("Neighbors = %v, reference %v", nb, want)
	}
}

func TestConcurrentReads(t *testing.T) {
	g := buildFigure3(t, fragment.NoConstOp)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.Dice(fragment.Relation("journal"), fragment.Relation("publication"))
				g.Occurrences(fragment.Relation("journal"))
				g.Top(3)
			}
		}()
	}
	wg.Wait()
}

func TestDicePropertyBounds(t *testing.T) {
	// Property: for any pair of fragments present in the graph,
	// 0 <= Dice <= 1 and Dice is symmetric.
	g := buildFigure3(t, fragment.NoConstOp)
	all := g.Top(100)
	f := func(i, j uint8) bool {
		a := all[int(i)%len(all)].Fragment
		b := all[int(j)%len(all)].Fragment
		d1 := g.Dice(a, b)
		d2 := g.Dice(b, a)
		return d1 >= 0 && d1 <= 1 && d1 == d2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestBuildResolveError(t *testing.T) {
	q := sqlparse.MustParse("SELECT z.title FROM publication p")
	_, err := Build([]sqlparse.LogEntry{{Query: q, Count: 1}}, fragment.Full)
	if err == nil {
		t.Fatal("expected resolve error")
	}
}
