package keyword

import (
	"reflect"
	"slices"
	"testing"

	"templar/internal/xrand"
)

// TestPostingMergesMatchSetAlgebra holds matchAll's merges to set
// algebra on seeded posting lists: the union of 1–20 adjacent sorted runs
// (odd run counts and several bottom-up passes included) and its
// intersection with another sorted list must equal a set computed with a
// map.
func TestPostingMergesMatchSetAlgebra(t *testing.T) {
	r := xrand.New(7)
	list := func() []int32 {
		set := map[int32]bool{}
		for i := r.Intn(12); i > 0; i-- {
			set[int32(r.Intn(40))] = true
		}
		return sortedKeys(set)
	}
	for trial := 0; trial < 2000; trial++ {
		// The runs sit at an offset into a posting array, as they do in
		// the index, with offs holding their absolute ends.
		base := int32(r.Intn(5))
		post := make([]int32, base)
		offs := []int32{base}
		want := map[int32]bool{}
		for i := 1 + r.Intn(20); i > 0; i-- {
			l := list()
			post = append(post, l...)
			offs = append(offs, int32(len(post)))
			for _, v := range l {
				want[v] = true
			}
		}
		runs := post[base:]
		union := unionRuns(runs, offs)
		if got := sortedKeys(want); !reflect.DeepEqual(union, got) && len(union)+len(got) > 0 {
			t.Fatalf("unionRuns(%v, %v) = %v, want %v", runs, offs, union, got)
		}
		other := list()
		inter := map[int32]bool{}
		for _, v := range other {
			if want[v] {
				inter[v] = true
			}
		}
		if got, want := intersectSorted(union, other), sortedKeys(inter); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
			t.Fatalf("intersectSorted(%v, %v) = %v, want %v", union, other, got, want)
		}
	}
}

func sortedKeys(set map[int32]bool) []int32 {
	out := make([]int32, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}
