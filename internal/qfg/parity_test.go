package qfg_test

import (
	"math"
	"path/filepath"
	"testing"

	"templar/internal/datasets"
	"templar/internal/fragment"
	"templar/internal/qfg"
	"templar/internal/sqlparse"
	"templar/internal/store"
)

// goldEntries parses a dataset's full gold-SQL log.
func goldEntries(tb testing.TB, ds *datasets.Dataset) []sqlparse.LogEntry {
	tb.Helper()
	entries := make([]sqlparse.LogEntry, 0, len(ds.Tasks))
	for _, task := range ds.Tasks {
		q, err := sqlparse.Parse(task.Gold)
		if err != nil {
			tb.Fatalf("%s: %v", task.ID, err)
		}
		entries = append(entries, sqlparse.LogEntry{Query: q, Count: 1})
	}
	return entries
}

// buildDataset folds a dataset's gold-SQL log into a snapshot and into
// the map-backed reference.
func buildDataset(t *testing.T, ds *datasets.Dataset, ob fragment.Obscurity) (*qfg.MapGraph, *qfg.Snapshot) {
	t.Helper()
	g, err := qfg.BuildMapGraph(goldEntries(t, ds), ob)
	if err != nil {
		t.Fatal(err)
	}
	s, err := qfg.Build(goldEntries(t, ds), ob)
	if err != nil {
		t.Fatal(err)
	}
	return g, s
}

// TestSnapshotParityAllDatasets is the tentpole acceptance test: on IMDB,
// MAS and Yelp, at all three obscurity levels, the compiled snapshot must
// agree bit-for-bit with the map-backed reference on nv for every fragment and
// on Dice for every fragment pair (present × present, present × absent and
// absent × absent alike).
func TestSnapshotParityAllDatasets(t *testing.T) {
	for _, ds := range datasets.All() {
		ds := ds
		t.Run(ds.Name, func(t *testing.T) {
			for _, ob := range fragment.Levels() {
				g, s := buildDataset(t, ds, ob)

				if s.Queries() != g.Queries() || s.Vertices() != g.Vertices() || s.Edges() != g.Edges() {
					t.Fatalf("%v: shape mismatch: snapshot (%d, %d, %d) vs graph (%d, %d, %d)", ob,
						s.Queries(), s.Vertices(), s.Edges(), g.Queries(), g.Vertices(), g.Edges())
				}

				frags := append(g.Fragments(), fragment.Relation("never_logged_relation"))

				for _, f := range frags {
					if got, want := s.Occurrences(f), g.Occurrences(f); got != want {
						t.Fatalf("%v: nv(%v) = %d, want %d", ob, f, got, want)
					}
				}
				mismatches := 0
				for i, a := range frags {
					for j := i; j < len(frags); j++ {
						b := frags[j]
						got, want := s.Dice(a, b), g.Dice(a, b)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Errorf("%v: Dice(%v, %v) = %v, want %v", ob, a, b, got, want)
							if mismatches++; mismatches > 5 {
								t.Fatalf("too many mismatches")
							}
						}
					}
				}
			}
		})
	}
}

// largestGold builds the largest bundled gold log (most fragments, at
// Full obscurity).
func largestGold(tb testing.TB) *qfg.Snapshot {
	tb.Helper()
	var best *qfg.Snapshot
	for _, ds := range datasets.All() {
		s, err := qfg.Build(goldEntries(tb, ds), fragment.Full)
		if err != nil {
			tb.Fatal(err)
		}
		if best == nil || s.Vertices() > best.Vertices() {
			best = s
		}
	}
	return best
}

// benchAppend is a one-query append of fragments the gold logs share.
func benchAppend(tb testing.TB) *sqlparse.Query {
	tb.Helper()
	q := sqlparse.MustParse("SELECT p.title FROM journal j, publication p WHERE j.name = 'TMC' AND p.year > 2000 AND p.jid = j.jid")
	if err := q.Resolve(nil); err != nil {
		tb.Fatal(err)
	}
	return q
}

// BenchmarkLiveAddQuery times one append plus publish on the largest gold
// QFG: what an acknowledged log append costs the live log.
func BenchmarkLiveAddQuery(b *testing.B) {
	live := qfg.NewLive(largestGold(b))
	q := benchAppend(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		live.AddQuery(q, 1)
	}
}

// BenchmarkNewLiveFromSnapshot times an archive boot through its first
// append: store.Open (mmap), a live log over the loaded snapshot, and one
// append plus publish.
func BenchmarkNewLiveFromSnapshot(b *testing.B) {
	path := filepath.Join(b.TempDir(), "gold.qfg")
	if err := store.WriteFile(path, "gold", largestGold(b)); err != nil {
		b.Fatal(err)
	}
	q := benchAppend(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := store.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		qfg.NewLive(m.Snapshot).AddQuery(q, 1)
		m.Close()
	}
}
