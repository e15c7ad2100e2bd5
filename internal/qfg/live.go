package qfg

import (
	"fmt"
	"sync"
	"sync/atomic"

	"templar/internal/sqlparse"
)

// Live is a growing query log: an atomically published Snapshot that
// appends replace copy-on-write. Readers load the current snapshot with
// one atomic pointer read and never block; an append splices a new
// snapshot from the current one (see splice.go) and publishes it. Every
// snapshot of one Live shares one interning table, so fragment IDs stay
// stable across publishes.
//
// An append costs its own fragments and edges plus one bulk copy of the
// untouched CSR ranges. Concurrent appends serialize on an internal mutex.
type Live struct {
	mu   sync.Mutex // serializes splice + publish
	snap atomic.Pointer[Snapshot]
}

// NewLive publishes s as the first snapshot of a growing log — a fresh
// Build, or an archive loaded from the store, bit for bit. The snapshot's
// interner keeps assigning IDs, so fragments already in s keep theirs
// across every later publish.
func NewLive(s *Snapshot) *Live {
	l := &Live{}
	l.snap.Store(s)
	return l
}

// NewLiveFromSnapshot is NewLive.
//
// Deprecated: use NewLive.
func NewLiveFromSnapshot(s *Snapshot) *Live { return NewLive(s) }

// CurrentSnapshot returns the latest published snapshot (lock-free).
func (l *Live) CurrentSnapshot() *Snapshot { return l.snap.Load() }

// AddQuery folds one alias-resolved query into the log and republishes.
func (l *Live) AddQuery(q *sqlparse.Query, count int) {
	l.AddQueries([]*sqlparse.Query{q}, []int{count})
}

// AddQueries folds a batch of alias-resolved queries into the log and
// republishes once: readers see either none or all of the batch.
// counts[i] is the multiplicity of queries[i]; a nil counts applies 1 to
// every query.
func (l *Live) AddQueries(queries []*sqlparse.Query, counts []int) {
	if counts != nil && len(counts) != len(queries) {
		// Fail before touching the log: a partial batch must never be
		// half-applied.
		panic("qfg: AddQueries counts length does not match queries")
	}
	if len(queries) == 0 {
		return
	}
	_ = l.Replay([]ReplayOp{{Queries: queries, Counts: counts}}) // only sessions can fail
}

// AddSession folds an ordered session of alias-resolved queries into the
// log (see session.go) and republishes.
func (l *Live) AddSession(queries []*sqlparse.Query, count int, decay float64) error {
	return l.Replay([]ReplayOp{{Session: true, Queries: queries, Count: count, Decay: decay}})
}

// Reset replaces the live state in place with the given snapshot, exactly
// as NewLive would publish it: the snapshot's interning table (with its
// pinned fragment IDs) becomes the live one. Readers holding the Live see
// the new state on their next CurrentSnapshot load — the re-bootstrap
// path a replication follower takes when its applied position has been
// compacted away on the primary.
func (l *Live) Reset(s *Snapshot) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.snap.Store(s)
}

// ReplayOp is one logged append operation for Replay: a query batch
// (Counts[i] is Queries[i]'s multiplicity, nil = all 1) or, with Session
// set, an ordered session with the given multiplicity and decay.
type ReplayOp struct {
	Session bool
	Queries []*sqlparse.Query
	Counts  []int
	Count   int
	Decay   float64
}

// Replay folds a sequence of append operations into the log and
// republishes once. The result is byte-identical to applying the same
// operations one AddQueries/AddSession call at a time: each operation's
// new fragments are interned in sorted order before the next operation's
// — the IDs the per-operation publishes would have assigned — and edge
// weights accumulate in the same operation order; only the splice is
// shared. An invalid operation (a session decay outside (0, 1]) fails the
// whole call before anything is folded, interned or published.
func (l *Live) Replay(ops []ReplayOp) error {
	for _, op := range ops {
		if op.Session && (op.Decay <= 0 || op.Decay > 1) {
			return fmt.Errorf("qfg: session decay %v outside (0, 1]", op.Decay)
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	base := l.snap.Load()
	d := newDelta(base)
	for _, op := range ops {
		if op.Session {
			d.addSession(op.Queries, op.Count, op.Decay)
		} else {
			d.addQueries(op.Queries, op.Counts)
		}
	}
	l.snap.Store(splice(base, d))
	return nil
}
