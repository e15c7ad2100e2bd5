package qfg

import (
	"math"
	"sync"
	"testing"

	"templar/internal/fragment"
	"templar/internal/sqlparse"
)

// allFragments lists every fragment of the graph plus some absent ones, so
// parity sweeps cover the miss paths too.
func allFragments(g *MapGraph) []fragment.Fragment {
	out := g.Fragments()
	out = append(out,
		fragment.Relation("never_logged_relation"),
		fragment.Attr("never.logged", "COUNT"),
	)
	return out
}

// assertParity checks the snapshot agrees bit-for-bit with the map-backed
// reference on every pair of the given fragments.
func assertParity(t *testing.T, g *MapGraph, s *Snapshot, frags []fragment.Fragment) {
	t.Helper()
	for _, f := range frags {
		if got, want := s.Occurrences(f), g.Occurrences(f); got != want {
			t.Fatalf("Occurrences(%v) = %d, want %d", f, got, want)
		}
	}
	for i, a := range frags {
		for j := i; j < len(frags); j++ {
			b := frags[j]
			got, want := s.Dice(a, b), g.Dice(a, b)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Dice(%v, %v) = %v (snapshot), want %v (graph)", a, b, got, want)
			}
			if gotNe, wantNe := s.CoOccurrences(a, b), g.CoOccurrences(a, b); gotNe != wantNe {
				t.Fatalf("CoOccurrences(%v, %v) = %d, want %d", a, b, gotNe, wantNe)
			}
			got, want = s.SessionCoOccurrence(a, b), g.SessionCoOccurrence(a, b)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("SessionCoOccurrence(%v, %v) = %v, want %v", a, b, got, want)
			}
		}
	}
}

func TestSnapshotParityFigure3(t *testing.T) {
	for _, ob := range fragment.Levels() {
		g := figure3Oracle(t, ob)
		s := buildFigure3(t, ob)
		if s.Obscurity() != ob {
			t.Fatalf("Obscurity = %v, want %v", s.Obscurity(), ob)
		}
		if s.Queries() != g.Queries() {
			t.Fatalf("Queries = %d, want %d", s.Queries(), g.Queries())
		}
		if s.Vertices() != g.Vertices() {
			t.Fatalf("Vertices = %d, want %d", s.Vertices(), g.Vertices())
		}
		if s.Edges() != g.Edges() {
			t.Fatalf("Edges = %d, want %d", s.Edges(), g.Edges())
		}
		assertParity(t, g, s, allFragments(g))
	}
}

func TestSnapshotParityWithSessions(t *testing.T) {
	g := figure3Oracle(t, fragment.NoConstOp)
	live := NewLive(buildFigure3(t, fragment.NoConstOp))
	session := []*sqlparse.Query{
		sqlparse.MustParse("SELECT j.name FROM journal j"),
		sqlparse.MustParse("SELECT p.title FROM publication p WHERE p.year > 2003"),
		sqlparse.MustParse("SELECT p.title FROM publication p"),
	}
	for _, q := range session {
		if err := q.Resolve(nil); err != nil {
			t.Fatal(err)
		}
	}
	g.AddSession(session, 2, 0.5)
	if err := live.AddSession(session, 2, 0.5); err != nil {
		t.Fatal(err)
	}
	s := live.CurrentSnapshot()
	// Session-only pairs (cross-query, never within one query) must appear
	// in the snapshot with their fractional evidence blended into Dice.
	jname := fragment.Attr("journal.name", "")
	title := fragment.Attr("publication.title", "")
	if g.CoOccurrences(jname, title) != 0 {
		t.Fatal("test premise: jname/title should not co-occur within a query")
	}
	if g.SessionCoOccurrence(jname, title) == 0 {
		t.Fatal("test premise: jname/title should carry session evidence")
	}
	assertParity(t, g, s, allFragments(g))
}

func TestSnapshotDiceRelations(t *testing.T) {
	g := figure3Oracle(t, fragment.NoConstOp)
	s := buildFigure3(t, fragment.NoConstOp)
	for _, pair := range [][2]string{
		{"journal", "publication"},
		{"journal", "journal"},
		{"journal", "nonesuch"},
		{"nonesuch", "nonesuch2"},
	} {
		got, want := s.DiceRelations(pair[0], pair[1]), g.DiceRelations(pair[0], pair[1])
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("DiceRelations(%s, %s) = %v, want %v", pair[0], pair[1], got, want)
		}
		if gotNe, wantNe := s.RelationCoOccurrences(pair[0], pair[1]), g.RelationCoOccurrences(pair[0], pair[1]); gotNe != wantNe {
			t.Fatalf("RelationCoOccurrences(%s, %s) = %d, want %d", pair[0], pair[1], gotNe, wantNe)
		}
	}
}

func TestSnapshotLookup(t *testing.T) {
	s := buildFigure3(t, fragment.NoConstOp)
	in := s.Interner()
	jour := fragment.Relation("journal")
	id := s.Lookup(jour)
	if id == fragment.NoID {
		t.Fatal("journal should be interned")
	}
	if in.Fragment(id) != jour {
		t.Fatalf("interner round-trip: %v", in.Fragment(id))
	}
	if s.OccurrencesID(id) != 28 {
		t.Fatal("OccurrencesID mismatch")
	}
	if got := s.Lookup(fragment.Relation("nonesuch")); got != fragment.NoID {
		t.Fatalf("Lookup(absent) = %d, want NoID", got)
	}
	if d := s.DiceID(fragment.NoID, id); d != 0 {
		t.Fatalf("DiceID(NoID, x) = %v, want 0", d)
	}
	if d := s.DiceID(fragment.NoID, fragment.NoID); d != 0 {
		t.Fatalf("DiceID(NoID, NoID) = %v, want 0", d)
	}

	// A fragment interned after the snapshot is absent from this snapshot.
	lateID := in.Intern(fragment.Relation("late_arrival"))
	if s.OccurrencesID(lateID) != 0 {
		t.Fatal("late-interned fragment must read as absent")
	}
	if got := s.Lookup(fragment.Relation("late_arrival")); got != fragment.NoID {
		t.Fatalf("Lookup(late) = %d, want NoID", got)
	}
	if d := s.DiceID(lateID, id); d != 0 {
		t.Fatalf("DiceID(late, x) = %v, want 0", d)
	}
}

// TestSharedInternerStableIDs republishes through a shared interner and
// checks old IDs keep resolving to the same fragments and counts.
func TestSharedInternerStableIDs(t *testing.T) {
	g := figure3Oracle(t, fragment.NoConstOp)
	live := NewLive(buildFigure3(t, fragment.NoConstOp))
	s1 := live.CurrentSnapshot()
	jour := fragment.Relation("journal")
	id1 := s1.Lookup(jour)

	q := sqlparse.MustParse("SELECT o.name FROM organization o WHERE o.name = 'MIT'")
	if err := q.Resolve(nil); err != nil {
		t.Fatal(err)
	}
	g.AddQuery(q, 4)
	live.AddQuery(q, 4)
	s2 := live.CurrentSnapshot()
	if id2 := s2.Lookup(jour); id2 != id1 {
		t.Fatalf("journal ID changed across republish: %d -> %d", id1, id2)
	}
	if s2.Occurrences(fragment.Relation("organization")) != 4 {
		t.Fatal("new fragment missing from republished snapshot")
	}
	assertParity(t, g, s2, allFragments(g))
	// The old snapshot must still answer from its frozen state.
	if s1.Occurrences(fragment.Relation("organization")) != 0 {
		t.Fatal("old snapshot must not see the new fragment")
	}
	if s1.Queries() == s2.Queries() {
		t.Fatal("old snapshot must keep its frozen query count")
	}
}

// TestLiveConcurrentReadersAndAppends exercises the copy-on-write republish
// under the race detector: readers load snapshots and probe Dice while a
// writer keeps appending; reads never block and never observe a torn state.
func TestLiveConcurrentReadersAndAppends(t *testing.T) {
	entries, err := sqlparse.ParseLog(figure3Log)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Build(entries, fragment.NoConstOp)
	if err != nil {
		t.Fatal(err)
	}
	live := NewLive(base)

	newQ := func(src string) *sqlparse.Query {
		q := sqlparse.MustParse(src)
		if err := q.Resolve(nil); err != nil {
			t.Fatal(err)
		}
		return q
	}
	appended := newQ("SELECT c.name FROM conference c WHERE c.year > 2010")

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			jour := fragment.Relation("journal")
			pub := fragment.Relation("publication")
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := live.CurrentSnapshot()
				a, b := s.Lookup(jour), s.Lookup(pub)
				if d := s.DiceID(a, b); d < 0 || d > 1 {
					t.Errorf("Dice out of range: %v", d)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			live.AddQuery(appended, 1)
		}
		if err := live.AddSession([]*sqlparse.Query{
			newQ("SELECT j.name FROM journal j"),
			newQ("SELECT p.title FROM publication p"),
		}, 1, 0.5); err != nil {
			t.Error(err)
		}
		close(stop)
	}()
	wg.Wait()

	s := live.CurrentSnapshot()
	if got := s.Occurrences(fragment.Relation("conference")); got != 50 {
		t.Fatalf("conference occurrences = %d, want 50", got)
	}
}

// ---------------------------------------------------------------------------
// Benchmarks: the map-backed Dice vs the compiled snapshot, serial and
// parallel. Run with -race to demonstrate concurrent-reader scaling with no
// synchronization on the hot path.

func BenchmarkDiceMap(b *testing.B) {
	g := figure3Oracle(b, fragment.NoConstOp)
	x := fragment.Relation("journal")
	y := fragment.Relation("publication")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Dice(x, y)
	}
}

func BenchmarkDiceSnapshotID(b *testing.B) {
	s := buildFigure3(b, fragment.NoConstOp)
	x := s.Lookup(fragment.Relation("journal"))
	y := s.Lookup(fragment.Relation("publication"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.DiceID(x, y)
	}
}

// BenchmarkDiceMapParallel reads the reference map concurrently; it has no
// writers, so no lock is needed.
func BenchmarkDiceMapParallel(b *testing.B) {
	g := figure3Oracle(b, fragment.NoConstOp)
	x := fragment.Relation("journal")
	y := fragment.Relation("publication")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			g.Dice(x, y)
		}
	})
}

func BenchmarkDiceSnapshotIDParallel(b *testing.B) {
	s := buildFigure3(b, fragment.NoConstOp)
	x := s.Lookup(fragment.Relation("journal"))
	y := s.Lookup(fragment.Relation("publication"))
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			s.DiceID(x, y)
		}
	})
}
