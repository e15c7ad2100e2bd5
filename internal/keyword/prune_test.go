package keyword

import (
	"math"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"templar/internal/xrand"
)

// sortThenPrune is the PRUNE implementation prune replaced, kept as its
// oracle: stable-sort every candidate by σ descending, then keep the
// exact matches, or the top κ plus the κ-th place's ties when that σ is
// positive, dropping zero-similarity candidates unless all are zero.
func sortThenPrune(cands []Mapping, k int, eps float64) []Mapping {
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].Sim > cands[j].Sim })
	if len(cands) == 0 {
		return nil
	}
	if cands[0].Sim >= 1-eps {
		var exact []Mapping
		for _, c := range cands {
			if c.Sim >= 1-eps {
				exact = append(exact, c)
			}
		}
		return exact
	}
	if len(cands) <= k {
		return trimZero(cands)
	}
	cut := cands[k-1].Sim
	out := cands[:k]
	for i := k; i < len(cands); i++ {
		if cands[i].Sim == cut && cut > 0 {
			out = append(out, cands[i])
		} else {
			break
		}
	}
	return trimZero(out)
}

// TestPruneMatchesSortThenPrune holds the bounded selection to the
// sort-then-cut oracle on seeded random similarity vectors. σ is drawn
// from a few levels, so ties are the rule: at the κ-th place, at exactly
// 1−ε (and one ulp below it) and at 0. The kept candidates, their order
// and the nil result for no candidates must all agree.
func TestPruneMatchesSortThenPrune(t *testing.T) {
	r := xrand.New(1)
	var kthTies, zeroCut, exact, allZero int
	for _, eps := range []float64{0.02, 0.1} {
		below := []float64{0, 0, 0.25, 0.5, 0.5, 0.75, math.Nextafter(1-eps, 0)}
		above := []float64{1 - eps, 1 - eps, 1}
		for trial := 0; trial < 4000; trial++ {
			n, k := r.Intn(25), 1+r.Intn(8)
			withExact := r.Intn(4) == 0
			cands := make([]Mapping, n)
			for i := range cands {
				sim := below[r.Intn(len(below))]
				if withExact && r.Intn(3) == 0 {
					sim = above[r.Intn(len(above))]
				}
				cands[i] = Mapping{Keyword: "kw", Kind: KindRelation, Rel: "r" + strconv.Itoa(i), Sim: sim}
			}
			want := sortThenPrune(append([]Mapping(nil), cands...), k, eps)
			got := prune(append([]Mapping(nil), cands...), k, eps)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("eps=%v k=%d sims=%v:\nprune          %v\nsortThenPrune  %v", eps, k, sims(cands), sims(got), sims(want))
			}
			sorted := append([]Mapping(nil), cands...)
			sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Sim > sorted[j].Sim })
			switch {
			case len(want) > 0 && want[0].Sim >= 1-eps:
				exact++
			case len(want) > k:
				kthTies++
			case n > k && sorted[k-1].Sim == 0 && sorted[k].Sim == 0:
				zeroCut++
			}
			if len(want) > 0 && want[0].Sim == 0 {
				allZero++
			}
		}
	}
	t.Logf("κ-th place ties kept %d, ties at a zero cut %d, exact matches %d, all zero %d", kthTies, zeroCut, exact, allZero)
	if kthTies == 0 || zeroCut == 0 || exact == 0 || allZero == 0 {
		t.Fatal("a tie case was never generated")
	}
}

func sims(ms []Mapping) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Rel + ":" + strconv.FormatFloat(m.Sim, 'g', -1, 64)
	}
	return out
}

// TestShortlistMatchesStableSortThenCut holds the bounded value shortlist
// to the code it replaced: stable-sort every matching value by σ
// descending, then keep the first maxValuesPerAttr. σ is drawn from a few
// levels, so ties fall at the cut and across it.
func TestShortlistMatchesStableSortThenCut(t *testing.T) {
	r := xrand.New(3)
	levels := []float64{0, 0.25, 0.5, 0.5, 0.75, 1}
	cutTies := 0
	for trial := 0; trial < 4000; trial++ {
		n := r.Intn(30)
		vals := make([]scoredValue, n)
		for i := range vals {
			vals[i] = scoredValue{int32(i), levels[r.Intn(len(levels))]}
		}
		var got []scoredValue
		for _, v := range vals {
			got = shortlist(got, maxValuesPerAttr, v)
		}
		want := append([]scoredValue(nil), vals...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].sim > want[j].sim })
		if len(want) > maxValuesPerAttr {
			if want[maxValuesPerAttr-1].sim == want[maxValuesPerAttr].sim {
				cutTies++
			}
			want = want[:maxValuesPerAttr]
		}
		if !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
			t.Fatalf("shortlist of %v = %v, want %v", vals, got, want)
		}
	}
	if cutTies == 0 {
		t.Fatal("no tie at the cut was generated")
	}
}
