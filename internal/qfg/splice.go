package qfg

import (
	"cmp"
	"slices"

	"templar/internal/fragment"
	"templar/internal/sqlparse"
)

// delta accumulates append operations against a base snapshot: the added
// query multiplicity, the added occurrences per fragment ID, and the new
// (ne, sess) of every edge an operation touched. A touched edge starts
// from the base snapshot's exact values, so its session weight sums in
// the same order whether the operations arrive one publish at a time, in
// one replayed batch, or after a store round trip.
type delta struct {
	base    *Snapshot
	queries int
	nv      map[uint32]int
	edges   map[edgeKey]*edgeDelta
}

// edgeKey is an undirected edge between fragment IDs, a < b.
type edgeKey struct{ a, b uint32 }

type edgeDelta struct {
	ne   int
	sess float64
}

func newDelta(base *Snapshot) *delta {
	return &delta{base: base, nv: make(map[uint32]int), edges: make(map[edgeKey]*edgeDelta)}
}

// intern extracts each query's fragments and returns them as IDs. The
// fragments the table has never seen are interned first, in sorted order,
// so IDs depend only on the sequence of operations — not on whether they
// were published one at a time or replayed as one batch.
func (d *delta) intern(queries []*sqlparse.Query) [][]uint32 {
	in := d.base.interner
	frags := make([][]fragment.Fragment, len(queries))
	var fresh []fragment.Fragment
	for i, q := range queries {
		frags[i] = fragment.Extract(q, d.base.obscurity)
		for _, f := range frags[i] {
			if in.Lookup(f) == fragment.NoID {
				fresh = append(fresh, f)
			}
		}
	}
	slices.SortFunc(fresh, compare)
	for _, f := range fresh {
		in.Intern(f) // idempotent for a fragment two queries share
	}
	ids := make([][]uint32, len(frags))
	for i, fs := range frags {
		ids[i] = make([]uint32, len(fs))
		for j, f := range fs {
			ids[i][j] = in.Lookup(f)
		}
	}
	return ids
}

// addQueries folds one batch: queries[i] with multiplicity counts[i] (a
// nil counts applies 1 to every query). Non-positive multiplicities are
// ignored, fragments included.
func (d *delta) addQueries(queries []*sqlparse.Query, counts []int) {
	var kept []*sqlparse.Query
	var mult []int
	for i, q := range queries {
		c := 1
		if counts != nil {
			c = counts[i]
		}
		if c > 0 {
			kept, mult = append(kept, q), append(mult, c)
		}
	}
	for i, ids := range d.intern(kept) {
		d.query(ids, mult[i])
	}
}

// addSession folds an ordered session (see session.go): every query with
// multiplicity count, then decay^(j-i)·count of session weight on every
// cross-query fragment pair (fa from query i, fb from query j, i < j).
// Replay has checked decay against (0, 1].
func (d *delta) addSession(queries []*sqlparse.Query, count int, decay float64) {
	if count <= 0 {
		return
	}
	ids := d.intern(queries)
	for _, q := range ids {
		d.query(q, count)
	}
	for i := range ids {
		w := 1.0
		for j := i + 1; j < len(ids); j++ {
			w *= decay
			for _, a := range ids[i] {
				for _, b := range ids[j] {
					if a != b {
						d.edge(a, b).sess += w * float64(count)
					}
				}
			}
		}
	}
}

// query folds one query's distinct fragment IDs with multiplicity count.
func (d *delta) query(ids []uint32, count int) {
	d.queries += count
	for i, a := range ids {
		d.nv[a] += count
		for _, b := range ids[i+1:] {
			d.edge(a, b).ne += count
		}
	}
}

// edge returns the accumulator of the (a, b) edge, seeding it from the
// base snapshot on first touch.
func (d *delta) edge(a, b uint32) *edgeDelta {
	k := edgeKey{min(a, b), max(a, b)}
	e := d.edges[k]
	if e == nil {
		e = &edgeDelta{}
		if at := d.base.edgeIndex(a, b); at >= 0 {
			e.ne, e.sess = d.base.neCount[at], d.base.sess[at]
		}
		d.edges[k] = e
	}
	return e
}

// halfEdge is one directed CSR entry a splice writes.
type halfEdge struct {
	key  uint64 // row<<32 | col: sorts by row, then neighbor
	ne   int
	sess float64
}

// splice returns a new snapshot of base with d folded in. Besides
// NewSnapshotFromParts it is the only way a snapshot is made: Build
// splices onto an empty snapshot, every append and Replay onto the
// published one. Rows no operation touched are bulk-copied range by range;
// only rows that gain or change a neighbor are merged. Every array is
// freshly allocated: base is never written, so a base that aliases a
// read-only file mapping stays valid and untouched.
func splice(base *Snapshot, d *delta) *Snapshot {
	n := base.interner.Len()
	s := &Snapshot{
		obscurity: base.obscurity,
		interner:  base.interner,
		queries:   base.queries + d.queries,
		nv:        make([]int, n),
		rowStart:  make([]uint32, n+1),
	}
	copy(s.nv, base.nv)
	for id, c := range d.nv {
		s.nv[id] += c
	}

	upd := make([]halfEdge, 0, 2*len(d.edges))
	for k, e := range d.edges {
		upd = append(upd,
			halfEdge{uint64(k.a)<<32 | uint64(k.b), e.ne, e.sess},
			halfEdge{uint64(k.b)<<32 | uint64(k.a), e.ne, e.sess})
	}
	slices.SortFunc(upd, func(x, y halfEdge) int { return cmp.Compare(x.key, y.key) })

	most := len(base.colID) + len(upd)
	s.colID, s.co = make([]uint32, 0, most), make([]float64, 0, most)
	s.neCount, s.sess = make([]int, 0, most), make([]float64, 0, most)
	baseRow := func(r int) int { // base row start, past-the-end for new IDs
		return int(base.rowStart[min(r, len(base.nv))])
	}
	keep := func(lo, hi int) { // copy base half-edges [lo, hi)
		s.colID = append(s.colID, base.colID[lo:hi]...)
		s.co = append(s.co, base.co[lo:hi]...)
		s.neCount = append(s.neCount, base.neCount[lo:hi]...)
		s.sess = append(s.sess, base.sess[lo:hi]...)
	}
	for row, u := 0, 0; row < n; {
		next := n // the next row an update touches
		if u < len(upd) {
			next = int(upd[u].key >> 32)
		}
		if row < next {
			// Untouched rows [row, next): one bulk copy, shifted starts.
			shift := len(s.colID) - baseRow(row)
			for r := row; r < next; r++ {
				s.rowStart[r] = uint32(baseRow(r) + shift)
			}
			keep(baseRow(row), baseRow(next))
			row = next
			continue
		}
		// Merge the row's sorted updates into its base neighbors.
		s.rowStart[row] = uint32(len(s.colID))
		i, hi := baseRow(row), baseRow(row+1)
		for ; u < len(upd) && int(upd[u].key>>32) == row; u++ {
			e, lo := upd[u], i
			for i < hi && base.colID[i] < uint32(e.key) {
				i++
			}
			keep(lo, i)
			if i < hi && base.colID[i] == uint32(e.key) {
				i++ // replaced by the update
			}
			s.colID, s.neCount, s.sess = append(s.colID, uint32(e.key)), append(s.neCount, e.ne), append(s.sess, e.sess)
			s.co = append(s.co, float64(e.ne)+e.sess)
		}
		keep(i, hi)
		row++
	}
	s.rowStart[n] = uint32(len(s.colID))
	s.edges = len(s.colID) / 2
	return s
}
