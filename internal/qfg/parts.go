package qfg

import (
	"fmt"

	"templar/internal/fragment"
)

// SnapshotParts is the raw state of a Snapshot, exposed so a
// serialization layer (internal/store) can round-trip snapshots to disk
// without qfg depending on any encoding. The slices are the snapshot's own
// backing arrays — callers must treat them as read-only.
//
// Invariants (enforced by NewSnapshotFromParts):
//
//   - len(RowStart) == len(NV) + 1, with RowStart[0] == 0 and the values
//     non-decreasing; RowStart[len(NV)] == len(ColID)
//   - ColID, Co, NECount and (when present) Sess are parallel arrays of
//     the same length, which is even
//   - within one row, ColID is strictly increasing and every ID indexes NV
//
// Every undirected edge is stored as two mirrored half-edges with equal
// weights. That is not checked (it would cost a probe per half-edge on
// every archive open): reads and splices stay in bounds without it, and a
// corrupt archive that breaks it only reads asymmetric weights.
type SnapshotParts struct {
	Obscurity fragment.Obscurity
	// Queries is the total logged queries the snapshot covers.
	Queries int
	// NV[id] is the occurrence count of fragment id.
	NV []int
	// RowStart/ColID/Co/NECount/Sess are the CSR adjacency arrays: the
	// neighbors of id are ColID[RowStart[id]:RowStart[id+1]], with the raw
	// integer ne in NECount, the accumulated session weight in Sess and the
	// blended co-occurrence float64(ne) + Sess in Co at the same index.
	RowStart []uint32
	ColID    []uint32
	Co       []float64
	NECount  []int
	// Sess is nil for archives written before the session weight was
	// stored (store format v1–v3); NewSnapshotFromParts then derives it as
	// Co − NECount. That recovers the session weight only up to the last
	// bit Co rounded away, so later session appends onto such a snapshot
	// can differ in the last bit from a log that never left memory.
	Sess []float64
}

// Parts exposes the snapshot's arrays for serialization. The
// returned slices alias the snapshot — read-only.
func (s *Snapshot) Parts() SnapshotParts {
	return SnapshotParts{
		Obscurity: s.obscurity,
		Queries:   s.queries,
		NV:        s.nv,
		RowStart:  s.rowStart,
		ColID:     s.colID,
		Co:        s.co,
		NECount:   s.neCount,
		Sess:      s.sess,
	}
}

// NewSnapshotFromParts reassembles a Snapshot from deserialized parts and
// the interning table its IDs refer to. The parts are validated against the
// SnapshotParts invariants so a corrupt or truncated store file surfaces as
// an error here instead of an out-of-range panic on the serving hot path.
// The snapshot takes ownership of the slices; DiceID over the result is
// bit-identical to the snapshot the parts were taken from.
func NewSnapshotFromParts(in *fragment.Interner, p SnapshotParts) (*Snapshot, error) {
	if in == nil {
		return nil, fmt.Errorf("qfg: snapshot parts without an interner")
	}
	if in.Len() < len(p.NV) {
		return nil, fmt.Errorf("qfg: %d fragment counts but only %d interned fragments", len(p.NV), in.Len())
	}
	if p.Queries < 0 {
		return nil, fmt.Errorf("qfg: negative query count %d", p.Queries)
	}
	if len(p.RowStart) != len(p.NV)+1 {
		return nil, fmt.Errorf("qfg: row index length %d for %d vertices", len(p.RowStart), len(p.NV))
	}
	half := len(p.ColID)
	if len(p.Co) != half || len(p.NECount) != half || (p.Sess != nil && len(p.Sess) != half) {
		return nil, fmt.Errorf("qfg: adjacency arrays disagree: %d cols, %d co, %d ne, %d sess", half, len(p.Co), len(p.NECount), len(p.Sess))
	}
	if half%2 != 0 {
		return nil, fmt.Errorf("qfg: odd half-edge count %d", half)
	}
	if p.RowStart[0] != 0 || int(p.RowStart[len(p.NV)]) != half {
		return nil, fmt.Errorf("qfg: row index spans [%d, %d], want [0, %d]", p.RowStart[0], p.RowStart[len(p.NV)], half)
	}
	for id := 0; id < len(p.NV); id++ {
		if p.NV[id] < 0 {
			return nil, fmt.Errorf("qfg: negative occurrence count for fragment %d", id)
		}
		lo, hi := p.RowStart[id], p.RowStart[id+1]
		if lo > hi || int(hi) > half {
			return nil, fmt.Errorf("qfg: fragment %d row [%d, %d) out of bounds", id, lo, hi)
		}
		for i := lo; i < hi; i++ {
			if int(p.ColID[i]) >= len(p.NV) {
				return nil, fmt.Errorf("qfg: fragment %d has neighbor %d outside %d vertices", id, p.ColID[i], len(p.NV))
			}
			if i > lo && p.ColID[i] <= p.ColID[i-1] {
				return nil, fmt.Errorf("qfg: fragment %d adjacency not strictly sorted", id)
			}
			if p.NECount[i] < 0 {
				return nil, fmt.Errorf("qfg: negative co-occurrence count on fragment %d", id)
			}
		}
	}
	sess := p.Sess
	if sess == nil {
		sess = make([]float64, half)
		for i, co := range p.Co {
			sess[i] = co - float64(p.NECount[i])
		}
	}
	return &Snapshot{
		obscurity: p.Obscurity,
		interner:  in,
		queries:   p.Queries,
		nv:        p.NV,
		rowStart:  p.RowStart,
		colID:     p.ColID,
		co:        p.Co,
		neCount:   p.NECount,
		sess:      sess,
		edges:     half / 2,
	}, nil
}
