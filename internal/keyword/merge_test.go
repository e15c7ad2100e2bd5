package keyword

import (
	"reflect"
	"sort"
	"strconv"
	"testing"

	"templar/internal/xrand"
)

// TestPostingMergesMatchSetAlgebra holds matchAll's merges to set
// algebra on seeded posting lists: the union of 1–20 sorted lists (odd
// run counts and several bottom-up passes included) and its intersection
// with another sorted list must equal a set computed with a map.
func TestPostingMergesMatchSetAlgebra(t *testing.T) {
	r := xrand.New(7)
	list := func() []string {
		set := map[string]bool{}
		for i := r.Intn(12); i > 0; i-- {
			set["v"+strconv.Itoa(r.Intn(40))] = true
		}
		return sortedKeys(set)
	}
	for trial := 0; trial < 2000; trial++ {
		lists := make([][]string, 1+r.Intn(20))
		want := map[string]bool{}
		for i := range lists {
			lists[i] = list()
			for _, v := range lists[i] {
				want[v] = true
			}
		}
		union := unionSorted(lists)
		if got := sortedKeys(want); !reflect.DeepEqual(union, got) && len(union)+len(got) > 0 {
			t.Fatalf("unionSorted(%v) = %v, want %v", lists, union, got)
		}
		other := list()
		inter := map[string]bool{}
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

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}
