package joinpath

import (
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"templar/internal/datasets"
	"templar/internal/fragment"
	"templar/internal/qfg"
	"templar/internal/schema"
	"templar/internal/sqlparse"
	"templar/internal/xrand"
)

// TestInferDifferential checks the edge-ID search against the oracle (the
// original string-keyed KMB implementation, oracle_test.go) on the MAS,
// Yelp and IMDB schemas. For every bag, a permutation of it is inferred on
// a cold cache and its reverse on the warm one; both must return exactly
// the oracle's ranked list for the sorted bag, TotalWeight bit for bit.
//
// Bags: every bag of 1–3 distinct relations, every self-join bag {r,r},
// {r,r,r} and {r,r,s}, and a seeded sample of 4-relation bags drawn with
// replacement. Weights: uniform, LogWeights and CountWeights of the gold
// QFG, and seeded random weights from {0.25, 0.5, 1}, which force ties.
func TestInferDifferential(t *testing.T) {
	for _, ds := range datasets.All() {
		g := ds.DB.Schema()
		gold := goldQFG(t, ds)
		weights := []struct {
			name string
			w    WeightFunc
		}{
			{"uniform", nil},
			{"log", LogWeights(gold)},
			{"count", CountWeights(gold)},
			{"random", randomWeights(g, 7)},
		}
		bags := differentialBags(g.Relations(), 11)
		for _, wc := range weights {
			w := wc.w
			t.Run(ds.Name+"/"+wc.name, func(t *testing.T) {
				t.Parallel()
				gen := NewGenerator(g, w)
				rng := xrand.New(13)
				for _, bag := range bags {
					want, wantErr := oracleInfer(g, w, bag)
					perm := slices.Clone(bag)
					rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
					rev := slices.Clone(perm)
					slices.Reverse(rev)
					gen.cache = inferCache{}
					for _, in := range [][]string{perm, rev} {
						got, err := gen.Infer(in, math.MaxInt)
						if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
							t.Fatalf("bag %v: err %v, oracle %v", in, err, wantErr)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("bag %v:\n got    %v\n oracle %v", in, got, want)
						}
						for i := range got {
							if math.Float64bits(got[i].TotalWeight) != math.Float64bits(want[i].TotalWeight) {
								t.Fatalf("bag %v path %d: TotalWeight %v, oracle %v", in, i, got[i].TotalWeight, want[i].TotalWeight)
							}
						}
					}
				}
			})
		}
	}
}

// goldQFG compiles the dataset's gold SQL into a QFG.
func goldQFG(t *testing.T, ds *datasets.Dataset) *qfg.Snapshot {
	t.Helper()
	entries := make([]sqlparse.LogEntry, 0, len(ds.Tasks))
	for _, task := range ds.Tasks {
		q, err := sqlparse.Parse(task.Gold)
		if err != nil {
			t.Fatalf("%s: %v", task.ID, err)
		}
		entries = append(entries, sqlparse.LogEntry{Query: q, Count: 1})
	}
	snap, err := qfg.Build(entries, fragment.NoConstOp)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// randomWeights draws a symmetric weight from {0.25, 0.5, 1} per related
// relation pair.
func randomWeights(g *schema.Graph, seed uint64) WeightFunc {
	levels := []float64{0.25, 0.5, 1}
	rng := xrand.New(seed)
	w := map[[2]string]float64{}
	for _, fk := range g.ForeignKeys() {
		if k := dicePair(fk.FromRel, fk.ToRel); w[k] == 0 {
			w[k] = levels[rng.Intn(len(levels))]
		}
	}
	return func(a, b string) float64 { return w[dicePair(a, b)] }
}

// differentialBags lists the sorted bags TestInferDifferential checks.
func differentialBags(rels []string, seed uint64) [][]string {
	rels = slices.Clone(rels)
	sort.Strings(rels)
	var bags [][]string
	for i, a := range rels {
		bags = append(bags, []string{a}, []string{a, a}, []string{a, a, a})
		for j := i + 1; j < len(rels); j++ {
			bags = append(bags, []string{a, rels[j]})
			for _, c := range rels[j+1:] {
				bags = append(bags, []string{a, rels[j], c})
			}
		}
		for _, b := range rels {
			if b != a {
				bag := []string{a, a, b}
				sort.Strings(bag)
				bags = append(bags, bag)
			}
		}
	}
	rng := xrand.New(seed)
	for i := 0; i < 150; i++ {
		bag := make([]string, 4)
		for k := range bag {
			bag[k] = rels[rng.Intn(len(rels))]
		}
		sort.Strings(bag)
		bags = append(bags, bag)
	}
	return bags
}
