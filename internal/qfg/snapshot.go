package qfg

import (
	"cmp"
	"slices"

	"templar/internal/fragment"
)

// Snapshot is an immutable Query Fragment Graph: fragments are interned
// to dense uint32 IDs, nv lives in a flat slice indexed by ID, and ne (with
// any blended session evidence) is CSR-style sorted adjacency probed by
// binary search. A Snapshot answers Dice with a handful of array reads —
// no locks, no map hashing, no string comparisons — and is safe to share
// across any number of concurrent readers.
//
// A snapshot never changes; appends splice a new one from it (see
// splice.go). Snapshots spliced from one another share their Interner and
// agree on fragment IDs, so a serving layer can republish after every log
// append while in-flight readers keep using the one they loaded.
type Snapshot struct {
	obscurity fragment.Obscurity
	interner  *fragment.Interner
	queries   int

	// nv[id] is the occurrence count of fragment id; IDs interned after
	// this snapshot was spliced fall past the end and read as absent.
	nv []int
	// CSR adjacency over fragment IDs: the neighbors of id are
	// colID[rowStart[id]:rowStart[id+1]], sorted ascending, with the raw
	// integer ne in neCount, the accumulated session weight in sess and
	// the blended co-occurrence float64(ne) + sess (what DiceID reads) in
	// co at the same index. Appends add to ne and sess and recompute co
	// from them, so co never feeds back into itself.
	rowStart []uint32
	colID    []uint32
	co       []float64
	neCount  []int
	sess     []float64

	edges int
}

// SnapshotSource yields the current snapshot of a possibly-evolving QFG.
// *Snapshot (itself) and *Live (its latest publication) both satisfy it;
// templar.NewLive takes one to pick a frozen or a growing log.
type SnapshotSource interface {
	CurrentSnapshot() *Snapshot
}

// CurrentSnapshot returns the snapshot itself, making a fixed *Snapshot a
// SnapshotSource for consumers that never see log appends.
func (s *Snapshot) CurrentSnapshot() *Snapshot { return s }

// Obscurity returns the obscurity level the snapshot was mined at.
func (s *Snapshot) Obscurity() fragment.Obscurity { return s.obscurity }

// Interner returns the shared interning table fragment IDs come from.
func (s *Snapshot) Interner() *fragment.Interner { return s.interner }

// Queries returns the total logged queries the snapshot covers.
func (s *Snapshot) Queries() int { return s.queries }

// Vertices returns the number of fragment IDs the snapshot covers (the
// interner's size when it was spliced, including fragments interned by
// other Lives sharing the table).
func (s *Snapshot) Vertices() int { return len(s.nv) }

// Edges returns the number of distinct co-occurring fragment pairs
// (including session-only pairs).
func (s *Snapshot) Edges() int { return s.edges }

// Lookup returns the snapshot-local ID of a fragment, or fragment.NoID when
// the fragment is absent (never interned, or interned after this snapshot).
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

// Occurrences returns nv(f): how many logged queries contain fragment f.
func (s *Snapshot) Occurrences(f fragment.Fragment) int { return s.occ(s.Lookup(f)) }

// DiceID is the lock-free hot path: the Dice coefficient of two interned
// fragments,
//
//	Dice(c1, c2) = 2·(ne(c1, c2) + sess(c1, c2)) / (nv(c1) + nv(c2))
//
// 0 when neither fragment occurs and 1 for a fragment with itself.
// fragment.NoID operands score as absent fragments.
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
		// Session evidence can push the blended coefficient past the pure
		// Dice ceiling; clamp so downstream weights stay in [0, 1].
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

// CoOccurrences returns the raw ne(a, b): how many logged queries contain
// both fragments (nv(a) when a == b).
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

// SessionCoOccurrence returns the accumulated (decayed) cross-query
// session weight of a fragment pair (see session.go); 0 for a == b.
func (s *Snapshot) SessionCoOccurrence(a, b fragment.Fragment) float64 {
	if a == b {
		return 0
	}
	if i := s.edgeIndex(s.Lookup(a), s.Lookup(b)); i >= 0 {
		return s.sess[i]
	}
	return 0
}

// Top returns the n most frequent fragments, ties broken by ascending ID
// (fragment order on a fresh Build), for inspection tools.
func (s *Snapshot) Top(n int) []Entry {
	ids := make([]uint32, 0, len(s.nv))
	for id, c := range s.nv {
		if c > 0 {
			ids = append(ids, uint32(id))
		}
	}
	// ids ascend, so a stable sort by descending nv breaks ties by ID.
	slices.SortStableFunc(ids, func(a, b uint32) int { return cmp.Compare(s.nv[b], s.nv[a]) })
	out := make([]Entry, min(n, len(ids)))
	for i := range out {
		out[i] = Entry{s.interner.Fragment(ids[i]), s.nv[ids[i]]}
	}
	return out
}

// Neighbors returns the fragments co-occurring with f within a query,
// sorted by descending within-query Dice (raw ne, no session weight) and
// then ascending ID, for inspection tools. Session-only pairs are left out.
func (s *Snapshot) Neighbors(f fragment.Fragment) []NeighborEntry {
	id := s.Lookup(f)
	if id == fragment.NoID {
		return nil
	}
	var out []NeighborEntry
	for i := s.rowStart[id]; i < s.rowStart[id+1]; i++ { // ascending ID
		if c, ne := s.colID[i], s.neCount[i]; ne > 0 {
			d := 2 * float64(ne) / float64(s.nv[id]+s.nv[c])
			out = append(out, NeighborEntry{s.interner.Fragment(c), ne, d})
		}
	}
	slices.SortStableFunc(out, func(a, b NeighborEntry) int { return cmp.Compare(b.Dice, a.Dice) })
	return out
}
