package qfg

import (
	"sort"

	"templar/internal/fragment"
	"templar/internal/sqlparse"
)

// MapGraph is the map-backed reference QFG the snapshot is tested against:
// Definition 6 and the session fold written as directly as possible, with
// fragment-keyed maps and no interning, CSR layout or splicing. It is
// test-only; the package serves every read from Snapshot.
type MapGraph struct {
	obscurity fragment.Obscurity
	nv        map[fragment.Fragment]int
	ne        map[pairKey]int
	sessNe    map[pairKey]float64
	queries   int
}

// pairKey is an unordered fragment pair (a ≤ b by compare).
type pairKey struct {
	a, b fragment.Fragment
}

func makePair(a, b fragment.Fragment) pairKey {
	if compare(b, a) < 0 {
		a, b = b, a
	}
	return pairKey{a, b}
}

// NewMapGraph returns an empty reference graph.
func NewMapGraph(ob fragment.Obscurity) *MapGraph {
	return &MapGraph{
		obscurity: ob,
		nv:        make(map[fragment.Fragment]int),
		ne:        make(map[pairKey]int),
		sessNe:    make(map[pairKey]float64),
	}
}

// BuildMapGraph folds a parsed log, resolving aliases in place.
func BuildMapGraph(entries []sqlparse.LogEntry, ob fragment.Obscurity) (*MapGraph, error) {
	g := NewMapGraph(ob)
	for _, e := range entries {
		if err := e.Query.Resolve(nil); err != nil {
			return nil, err
		}
		g.AddQuery(e.Query, e.Count)
	}
	return g, nil
}

// AddQuery folds one alias-resolved query with the given multiplicity.
func (g *MapGraph) AddQuery(q *sqlparse.Query, count int) {
	if count <= 0 {
		return
	}
	frags := fragment.Extract(q, g.obscurity)
	g.queries += count
	for _, f := range frags {
		g.nv[f] += count
	}
	for i := 0; i < len(frags); i++ {
		for j := i + 1; j < len(frags); j++ {
			g.ne[makePair(frags[i], frags[j])] += count
		}
	}
}

// AddSession folds an ordered session: each query as usual, then
// decay^(j-i)·count on every cross-query pair.
func (g *MapGraph) AddSession(queries []*sqlparse.Query, count int, decay float64) {
	if count <= 0 {
		return
	}
	frags := make([][]fragment.Fragment, len(queries))
	for i, q := range queries {
		g.AddQuery(q, count)
		frags[i] = fragment.Extract(q, g.obscurity)
	}
	for i := 0; i < len(frags); i++ {
		w := 1.0
		for j := i + 1; j < len(frags); j++ {
			w *= decay
			for _, fa := range frags[i] {
				for _, fb := range frags[j] {
					if fa != fb {
						g.sessNe[makePair(fa, fb)] += w * float64(count)
					}
				}
			}
		}
	}
}

func (g *MapGraph) Queries() int  { return g.queries }
func (g *MapGraph) Vertices() int { return len(g.nv) }

// Edges counts distinct pairs with within-query or session evidence.
func (g *MapGraph) Edges() int {
	n := len(g.ne)
	for pk := range g.sessNe {
		if _, ok := g.ne[pk]; !ok {
			n++
		}
	}
	return n
}

func (g *MapGraph) Occurrences(f fragment.Fragment) int { return g.nv[f] }

func (g *MapGraph) CoOccurrences(a, b fragment.Fragment) int {
	if a == b {
		return g.nv[a]
	}
	return g.ne[makePair(a, b)]
}

func (g *MapGraph) SessionCoOccurrence(a, b fragment.Fragment) float64 {
	if a == b {
		return 0
	}
	return g.sessNe[makePair(a, b)]
}

// Dice is 2·(ne + sess) / (nv(a) + nv(b)), clamped to 1, with the blended
// weight rounded once as float64(ne) + sess.
func (g *MapGraph) Dice(a, b fragment.Fragment) float64 {
	na, nb := g.nv[a], g.nv[b]
	if na+nb == 0 {
		return 0
	}
	var ne float64
	if a == b {
		ne = float64(na)
	} else {
		pk := makePair(a, b)
		ne = float64(g.ne[pk]) + g.sessNe[pk]
	}
	return min(2*ne/float64(na+nb), 1)
}

func (g *MapGraph) DiceRelations(relA, relB string) float64 {
	return g.Dice(fragment.Relation(relA), fragment.Relation(relB))
}

func (g *MapGraph) RelationCoOccurrences(relA, relB string) int {
	return g.CoOccurrences(fragment.Relation(relA), fragment.Relation(relB))
}

// Top lists the n most frequent fragments, ties in fragment order.
func (g *MapGraph) Top(n int) []Entry {
	entries := make([]Entry, 0, len(g.nv))
	for f, c := range g.nv {
		entries = append(entries, Entry{f, c})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Count != entries[j].Count {
			return entries[i].Count > entries[j].Count
		}
		return compare(entries[i].Fragment, entries[j].Fragment) < 0
	})
	return entries[:min(n, len(entries))]
}

// Neighbors lists f's within-query neighbors by descending raw-count
// Dice, ties in fragment order.
func (g *MapGraph) Neighbors(f fragment.Fragment) []NeighborEntry {
	var out []NeighborEntry
	for pk, c := range g.ne {
		var other fragment.Fragment
		switch {
		case pk.a == f:
			other = pk.b
		case pk.b == f:
			other = pk.a
		default:
			continue
		}
		out = append(out, NeighborEntry{other, c, 2 * float64(c) / float64(g.nv[f]+g.nv[other])})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dice != out[j].Dice {
			return out[i].Dice > out[j].Dice
		}
		return compare(out[i].Fragment, out[j].Fragment) < 0
	})
	return out
}

// Fragments lists every fragment with nv > 0 in fragment order.
func (g *MapGraph) Fragments() []fragment.Fragment {
	out := make([]fragment.Fragment, 0, len(g.nv))
	for f := range g.nv {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return compare(out[i], out[j]) < 0 })
	return out
}
