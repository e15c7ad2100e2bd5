package nlidb_test

import (
	"strings"
	"testing"

	"templar/internal/datasets"
	"templar/internal/embedding"
	"templar/internal/eval"
	"templar/internal/fragment"
	"templar/internal/nlidb"
	"templar/internal/qfg"
	"templar/internal/sqlparse"
)

// TestCanonicalSQLMatchesRoundTrip holds the direct canonicalization to
// the print-and-reparse oracle on every query Translate can build: for the
// four paper systems over each dataset's gold log at each obscurity level
// (the nine golden corpora's logs), every (configuration, path) pair of
// every task must render parseable SQL whose round-trip canonical form is
// byte-identical to canonicalSQL's.
func TestCanonicalSQLMatchesRoundTrip(t *testing.T) {
	for _, ds := range datasets.All() {
		for _, ob := range fragment.Levels() {
			ds, ob := ds, ob
			t.Run(strings.ToLower(ds.Name)+"/"+ob.String(), func(t *testing.T) {
				t.Parallel()
				entries := make([]sqlparse.LogEntry, 0, len(ds.Tasks))
				for _, task := range ds.Tasks {
					entries = append(entries, sqlparse.LogEntry{Query: sqlparse.MustParse(task.Gold), Count: 1})
				}
				snap, err := qfg.Build(entries, ob)
				if err != nil {
					t.Fatal(err)
				}
				model := embedding.New()
				pairs := 0
				for _, name := range eval.AllSystems() {
					sys, err := eval.NewSystem(ds, name, model, snap, eval.Options{Obscurity: ob})
					if err != nil {
						t.Fatal(err)
					}
					for _, task := range ds.Tasks {
						qs, err := sys.CandidateQueries(task.NLQ, task.Hazard, task.Keywords)
						if err != nil {
							continue // unmappable keywords: nothing is built
						}
						for _, q := range qs {
							want, err := nlidb.RoundTripCanonicalSQL(q)
							if err != nil {
								t.Fatalf("%s %s: generated unparseable SQL %q: %v", name, task.ID, q.String(), err)
							}
							got, err := nlidb.CanonicalSQL(q)
							if err != nil {
								t.Fatalf("%s %s: canonicalSQL(%q): %v", name, task.ID, q.String(), err)
							}
							if got != want {
								t.Fatalf("%s %s: %q\ncanonicalSQL %q\nround trip   %q", name, task.ID, q.String(), got, want)
							}
							pairs++
						}
					}
				}
				if pairs == 0 {
					t.Fatal("no (configuration, path) pair was built")
				}
				t.Logf("%d pairs", pairs)
			})
		}
	}
}
