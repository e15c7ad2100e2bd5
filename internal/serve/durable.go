package serve

import (
	"fmt"

	"templar/internal/qfg"
	"templar/internal/repl"
	"templar/internal/store"
	"templar/internal/wal"
)

// AttachWAL opens (creating if absent) the tenant's write-ahead log under
// dir, replays every recovered record past the tenant's boot snapshot into
// the live engine, and arms the tenant so subsequent log appends are made
// durable before they are applied or acknowledged.
//
// Replay is a filter, not a guess: the tenant's SnapshotSeq (the
// store.Archive.WalSeq its engine was loaded at; 0 for a built or
// preloaded engine) names the last record the snapshot already covers, and
// exactly the records after it are folded back in — through
// qfg.Live.Replay, so the recovered engine is byte-identical to one that
// never crashed. If the recovery found an interrupted compaction and the
// tenant has a StorePath, the compaction is completed here: the replayed
// engine is persisted at the recovered sequence and the rotated-out
// segment is released.
//
// AttachWAL fails on a frozen engine (nothing to replay into), on a log
// whose sequence range cannot be reconciled with the snapshot (a stale or
// foreign log — see docs/DURABILITY.md's runbook), and on any disk-level
// open or replay error. Call it at load time, before the tenant serves
// traffic; it does not lock against concurrent appends.
func AttachWAL(t *Tenant, dir string, opts wal.Options) (*wal.Recovery, error) {
	live := t.Sys.Live()
	if live == nil {
		return nil, fmt.Errorf("serve: dataset %q: cannot attach a write-ahead log to a frozen engine", t.Name)
	}
	if t.WAL != nil {
		return nil, fmt.Errorf("serve: dataset %q already has a write-ahead log attached", t.Name)
	}
	opts.CreateBase = t.SnapshotSeq
	l, rec, err := wal.Open(dir, t.Name, opts)
	if err != nil {
		return nil, err
	}

	// Reconcile the log's sequence range with the snapshot's coverage
	// before replaying anything. A log that ends behind the snapshot, or
	// whose records start past it, cannot have come from this snapshot's
	// lineage — applying it (or appending to it) would corrupt the engine
	// silently, so fail loud instead.
	if last := l.LastSeq(); last < t.SnapshotSeq {
		l.Close()
		return nil, fmt.Errorf(
			"serve: dataset %q: write-ahead log ends at sequence %d but the snapshot covers %d (stale or restored log); remove the log to continue from the snapshot alone",
			t.Name, last, t.SnapshotSeq)
	}
	ops := make([]qfg.ReplayOp, 0, len(rec.Records))
	for _, r := range rec.Records {
		if r.Seq <= t.SnapshotSeq {
			continue
		}
		if len(ops) == 0 && r.Seq != t.SnapshotSeq+1 {
			l.Close()
			return nil, fmt.Errorf(
				"serve: dataset %q: write-ahead log resumes at sequence %d but the snapshot covers %d; records in between are missing (snapshot/log mismatch)",
				t.Name, r.Seq, t.SnapshotSeq)
		}
		op, err := repl.ToReplayOp(r)
		if err != nil {
			l.Close()
			return nil, fmt.Errorf("serve: dataset %q: WAL record %d: %w", t.Name, r.Seq, err)
		}
		ops = append(ops, op)
	}
	if len(ops) == 0 && l.LastSeq() > t.SnapshotSeq {
		l.Close()
		return nil, fmt.Errorf(
			"serve: dataset %q: write-ahead log is at sequence %d with no replayable records past the snapshot's %d (snapshot/log mismatch)",
			t.Name, l.LastSeq(), t.SnapshotSeq)
	}
	if err := live.Replay(ops); err != nil {
		l.Close()
		return nil, fmt.Errorf("serve: dataset %q: WAL replay: %w", t.Name, err)
	}
	t.WAL = l

	// A compaction that died between rotating the segment and persisting
	// its snapshot is completed now: the engine state just replayed covers
	// every record of both segments, so persisting it releases the
	// rotated-out one. No appendMu needed — the tenant is not serving yet.
	if rec.CompactionPending && t.StorePath != "" {
		if err := store.WriteFileAt(t.StorePath, t.Name, live.CurrentSnapshot(), l.LastSeq()); err != nil {
			return rec, fmt.Errorf("serve: dataset %q: completing interrupted compaction: %w", t.Name, err)
		}
		if err := l.FinishCompaction(); err != nil {
			return rec, fmt.Errorf("serve: dataset %q: completing interrupted compaction: %w", t.Name, err)
		}
	}
	return rec, nil
}
