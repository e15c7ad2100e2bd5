package qfg

import (
	"sort"

	"templar/internal/fragment"
)

// Snapshot is an immutable, compiled view of a Graph: fragments are interned
// to dense uint32 IDs, nv lives in a flat slice indexed by ID, and ne (with
// any blended session evidence) is CSR-style sorted adjacency probed by
// binary search. A Snapshot answers Dice with a handful of array reads —
// no locks, no map hashing, no string comparisons — and is safe to share
// across any number of concurrent readers.
//
// Snapshots compiled from the same Interner agree on fragment IDs, so a
// serving layer can republish a fresh Snapshot after every log append while
// in-flight readers keep using the one they loaded.
type Snapshot struct {
	obscurity fragment.Obscurity
	interner  *fragment.Interner
	queries   int

	// nv[id] is the occurrence count of fragment id; IDs interned after
	// this snapshot was compiled fall past the end and read as absent.
	nv []int
	// CSR adjacency over fragment IDs: the neighbors of id are
	// colID[rowStart[id]:rowStart[id+1]], sorted ascending, with the
	// blended co-occurrence float64(ne) + sess in co and the raw integer
	// ne in neCount at the same index.
	rowStart []uint32
	colID    []uint32
	co       []float64
	neCount  []int

	edges int
}

// SnapshotSource yields the current snapshot of a possibly-evolving QFG.
// *Snapshot (itself) and *Live (its latest publication) both satisfy it.
type SnapshotSource interface {
	CurrentSnapshot() *Snapshot
}

// CurrentSnapshot returns the snapshot itself, making a fixed *Snapshot a
// SnapshotSource for consumers that never see log appends.
func (s *Snapshot) CurrentSnapshot() *Snapshot { return s }

// NonNilSource returns src, or nil when src is nil or wraps a nil *Live or
// *Snapshot, so consumers can treat "no query log" as one nil check even
// when a caller hands them a typed nil pointer.
func NonNilSource(src SnapshotSource) SnapshotSource {
	switch s := src.(type) {
	case *Live:
		if s == nil {
			return nil
		}
	case *Snapshot:
		if s == nil {
			return nil
		}
	}
	return src
}

// internFragments interns the graph's current fragment set into in, in
// sorted order — exactly the ID assignment Snapshot performs — without
// paying for a compile. Live.Replay uses it to reproduce, per replayed
// record, the IDs an incremental republish after that record would have
// assigned.
func (g *Graph) internFragments(in *fragment.Interner) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	frags := make([]fragment.Fragment, 0, len(g.nv))
	for f := range g.nv {
		frags = append(frags, f)
	}
	sort.Slice(frags, func(i, j int) bool { return less(frags[i], frags[j]) })
	for _, f := range frags {
		in.Intern(f)
	}
}

// Snapshot compiles an immutable snapshot of the graph's current state.
// Fragments are interned into in; passing nil creates a fresh table. The
// compile holds the graph's read lock, so it can run concurrently with
// readers but serializes against AddQuery/AddSession.
func (g *Graph) Snapshot(in *fragment.Interner) *Snapshot {
	if in == nil {
		in = fragment.NewInterner()
	}
	g.mu.RLock()
	defer g.mu.RUnlock()

	// Intern in sorted fragment order so a fresh interner assigns
	// deterministic IDs regardless of map iteration order.
	frags := make([]fragment.Fragment, 0, len(g.nv))
	for f := range g.nv {
		frags = append(frags, f)
	}
	sort.Slice(frags, func(i, j int) bool { return less(frags[i], frags[j]) })
	for _, f := range frags {
		in.Intern(f)
	}

	s := &Snapshot{
		obscurity: g.obscurity,
		interner:  in,
		queries:   g.queries,
		nv:        make([]int, in.Len()),
	}
	for _, f := range frags {
		s.nv[in.Lookup(f)] = g.nv[f]
	}

	// Union the within-query and session edge sets into per-ID half-edge
	// counts, then lay the CSR arrays out row by row.
	type edge struct {
		a, b uint32
		co   float64
		ne   int
	}
	edges := make([]edge, 0, len(g.ne)+len(g.sessNe))
	seen := make(map[pairKey]bool, len(g.sessNe))
	for pk, n := range g.ne {
		e := edge{a: in.Lookup(pk.a), b: in.Lookup(pk.b), co: float64(n), ne: n}
		if g.sessNe != nil {
			if w, ok := g.sessNe[pk]; ok {
				e.co = float64(n) + w
				seen[pk] = true
			}
		}
		edges = append(edges, e)
	}
	for pk, w := range g.sessNe {
		if seen[pk] {
			continue
		}
		// Session-only pair: the fragments never co-occur within one query.
		edges = append(edges, edge{a: in.Lookup(pk.a), b: in.Lookup(pk.b), co: w})
	}
	s.edges = len(edges)

	degree := make([]uint32, len(s.nv))
	for _, e := range edges {
		degree[e.a]++
		degree[e.b]++
	}
	s.rowStart = make([]uint32, len(s.nv)+1)
	for i, d := range degree {
		s.rowStart[i+1] = s.rowStart[i] + d
	}
	half := int(s.rowStart[len(s.nv)])
	s.colID = make([]uint32, half)
	s.co = make([]float64, half)
	s.neCount = make([]int, half)
	next := make([]uint32, len(s.nv))
	copy(next, s.rowStart[:len(s.nv)])
	place := func(row, col uint32, co float64, ne int) {
		i := next[row]
		s.colID[i] = col
		s.co[i] = co
		s.neCount[i] = ne
		next[row]++
	}
	for _, e := range edges {
		place(e.a, e.b, e.co, e.ne)
		place(e.b, e.a, e.co, e.ne)
	}
	for id := 0; id < len(s.nv); id++ {
		lo, hi := s.rowStart[id], s.rowStart[id+1]
		row := rowSorter{s, int(lo), int(hi)}
		sort.Sort(row)
	}
	return s
}

// rowSorter sorts one CSR row's parallel arrays by neighbor ID.
type rowSorter struct {
	s      *Snapshot
	lo, hi int
}

func (r rowSorter) Len() int { return r.hi - r.lo }
func (r rowSorter) Less(i, j int) bool {
	return r.s.colID[r.lo+i] < r.s.colID[r.lo+j]
}
func (r rowSorter) Swap(i, j int) {
	i, j = r.lo+i, r.lo+j
	r.s.colID[i], r.s.colID[j] = r.s.colID[j], r.s.colID[i]
	r.s.co[i], r.s.co[j] = r.s.co[j], r.s.co[i]
	r.s.neCount[i], r.s.neCount[j] = r.s.neCount[j], r.s.neCount[i]
}

// Obscurity returns the obscurity level the snapshot was compiled at.
func (s *Snapshot) Obscurity() fragment.Obscurity { return s.obscurity }

// Interner returns the shared interning table fragment IDs come from.
func (s *Snapshot) Interner() *fragment.Interner { return s.interner }

// Queries returns the total logged queries at compile time.
func (s *Snapshot) Queries() int { return s.queries }

// Vertices returns the number of fragment IDs the snapshot covers (the
// interner's size at compile time, including fragments from sibling graphs
// sharing the table).
func (s *Snapshot) Vertices() int { return len(s.nv) }

// Edges returns the number of distinct co-occurring fragment pairs
// (including session-only pairs).
func (s *Snapshot) Edges() int { return s.edges }

// Lookup returns the snapshot-local ID of a fragment, or fragment.NoID when
// the fragment is absent (never interned, or interned after compile).
// Consumers translate fragments to IDs once per request with Lookup, then
// probe with the ID-based methods.
func (s *Snapshot) Lookup(f fragment.Fragment) uint32 {
	id := s.interner.Lookup(f)
	if !s.inRange(id) {
		return fragment.NoID
	}
	return id
}

// inRange reports whether id indexes this snapshot's arrays. The uint64
// comparison stays correct on 32-bit platforms, where int(fragment.NoID)
// would wrap negative and slip past an int comparison.
func (s *Snapshot) inRange(id uint32) bool {
	return uint64(id) < uint64(len(s.nv))
}

// occ is nv by ID; absent IDs (including fragment.NoID) occur zero times.
func (s *Snapshot) occ(id uint32) int {
	if !s.inRange(id) {
		return 0
	}
	return s.nv[id]
}

// edgeIndex binary-searches the CSR index of the (a, b) edge for a != b,
// probing the shorter of the two adjacency rows. It returns -1 when the
// fragments never co-occur or either ID is absent.
func (s *Snapshot) edgeIndex(a, b uint32) int {
	if !s.inRange(a) || !s.inRange(b) {
		return -1
	}
	if s.rowStart[a+1]-s.rowStart[a] > s.rowStart[b+1]-s.rowStart[b] {
		a, b = b, a
	}
	lo, hi := int(s.rowStart[a]), int(s.rowStart[a+1])
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		switch c := s.colID[mid]; {
		case c < b:
			lo = mid + 1
		case c > b:
			hi = mid
		default:
			return mid
		}
	}
	return -1
}

// edgeCo returns the blended co-occurrence float64(ne) + sess for a != b.
func (s *Snapshot) edgeCo(a, b uint32) float64 {
	if i := s.edgeIndex(a, b); i >= 0 {
		return s.co[i]
	}
	return 0
}

// edgeNe returns the raw integer co-occurrence count for a != b.
func (s *Snapshot) edgeNe(a, b uint32) int {
	if i := s.edgeIndex(a, b); i >= 0 {
		return s.neCount[i]
	}
	return 0
}

// OccurrencesID returns nv for a fragment ID.
func (s *Snapshot) OccurrencesID(id uint32) int { return s.occ(id) }

// Occurrences returns nv(f), like Graph.Occurrences.
func (s *Snapshot) Occurrences(f fragment.Fragment) int { return s.occ(s.Lookup(f)) }

// DiceID is the lock-free hot path: the Dice coefficient of two interned
// fragments, bit-identical to Graph.Dice on the same state. fragment.NoID
// operands score as absent fragments.
func (s *Snapshot) DiceID(a, b uint32) float64 {
	na, nb := s.occ(a), s.occ(b)
	if na+nb == 0 {
		return 0
	}
	var ne float64
	if a == b {
		ne = float64(na)
	} else {
		ne = s.edgeCo(a, b)
	}
	d := 2 * ne / float64(na+nb)
	if d > 1 {
		// Same clamp as Graph.Dice: session evidence can push the blended
		// coefficient past the pure Dice ceiling.
		d = 1
	}
	return d
}

// Dice looks both fragments up and defers to DiceID.
func (s *Snapshot) Dice(a, b fragment.Fragment) float64 {
	ia := s.Lookup(a)
	var ib uint32
	if a == b {
		ib = ia
	} else {
		ib = s.Lookup(b)
	}
	return s.DiceID(ia, ib)
}

// CoOccurrences returns the raw ne(a, b), like Graph.CoOccurrences.
func (s *Snapshot) CoOccurrences(a, b fragment.Fragment) int {
	if a == b {
		return s.Occurrences(a)
	}
	return s.edgeNe(s.Lookup(a), s.Lookup(b))
}

// DiceRelations is Dice over FROM fragments of two relation names; it
// satisfies joinpath.DiceSource, so log-driven join weights can be derived
// from the snapshot at generator build time.
func (s *Snapshot) DiceRelations(relA, relB string) float64 {
	return s.Dice(fragment.Relation(relA), fragment.Relation(relB))
}

// RelationCoOccurrences satisfies joinpath.CountSource for the raw-count
// weight ablation.
func (s *Snapshot) RelationCoOccurrences(relA, relB string) int {
	return s.CoOccurrences(fragment.Relation(relA), fragment.Relation(relB))
}
