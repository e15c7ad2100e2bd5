package repl

import (
	"context"
	"errors"
	"log"
	"math/rand"
	"sync/atomic"
	"time"

	"templar/internal/qfg"
	"templar/internal/wal"
	"templar/pkg/api"
)

// FollowerOptions tune a follower's tail loop. The zero value is usable:
// 100ms polls, 200ms→5s jittered retry backoff.
type FollowerOptions struct {
	// PollInterval is the idle delay between tail polls once caught up.
	PollInterval time.Duration
	// Backoff is the initial retry delay after a failed poll; it doubles
	// per consecutive failure up to MaxBackoff and resets on success.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// Jitter maps a planned delay onto the actually slept one. The default
	// is equal jitter (uniform in [d/2, d]), so a fleet of followers that
	// lost the same primary does not retry in lockstep. Tests inject
	// identity to make schedules deterministic.
	Jitter func(d time.Duration) time.Duration
	// Sleep is the delay primitive, injectable for tests; the default
	// honors ctx cancellation.
	Sleep func(ctx context.Context, d time.Duration) error
	// Logger receives state transitions (re-bootstraps, rejected batches);
	// nil discards them.
	Logger *log.Logger
}

func (o FollowerOptions) withDefaults() FollowerOptions {
	if o.PollInterval <= 0 {
		o.PollInterval = 100 * time.Millisecond
	}
	if o.Backoff <= 0 {
		o.Backoff = 200 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 5 * time.Second
	}
	if o.Jitter == nil {
		o.Jitter = func(d time.Duration) time.Duration {
			half := d / 2
			return half + time.Duration(rand.Int63n(int64(half)+1))
		}
	}
	if o.Sleep == nil {
		o.Sleep = func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-t.C:
				return nil
			}
		}
	}
	return o
}

// Bootstrap fetches the primary's current snapshot archive and builds the
// live engine a follower serves from, returning it with the watermark
// sequence the snapshot covers — tailing starts right after it.
func Bootstrap(ctx context.Context, c *Client, dataset string) (*qfg.Live, uint64, error) {
	ar, err := c.Snapshot(ctx, dataset)
	if err != nil {
		return nil, 0, err
	}
	return qfg.NewLive(ar.Snapshot), ar.WalSeq, nil
}

// Follower tails one dataset's replication stream and folds validated
// batches into the live engine it was bootstrapped with. All state is
// atomic: the serving layer reads Status() concurrently with the loop.
type Follower struct {
	dataset string
	client  *Client
	live    *qfg.Live
	opts    FollowerOptions

	applied    atomic.Uint64
	primarySeq atomic.Uint64
	bootstraps atomic.Int64
	rejected   atomic.Int64
	lastPollMS atomic.Int64
	lastErr    atomic.Pointer[string]
}

// NewFollower wraps a bootstrapped engine: live must have been built from
// the primary's snapshot at watermark startSeq (see Bootstrap).
func NewFollower(c *Client, dataset string, live *qfg.Live, startSeq uint64, opts FollowerOptions) *Follower {
	f := &Follower{dataset: dataset, client: c, live: live, opts: opts.withDefaults()}
	f.applied.Store(startSeq)
	f.primarySeq.Store(startSeq)
	f.bootstraps.Store(1)
	return f
}

// AppliedSeq is the last WAL sequence folded into the serving engine.
func (f *Follower) AppliedSeq() uint64 { return f.applied.Load() }

// Status reports the follower's position for /healthz and the dataset
// listings.
func (f *Follower) Status() *api.ReplicationStatus {
	applied := int64(f.applied.Load())
	primary := int64(f.primarySeq.Load())
	st := &api.ReplicationStatus{
		Role:            "follower",
		Primary:         f.client.Base(),
		LastAppliedSeq:  applied,
		PrimarySeq:      primary,
		Lag:             max64(primary-applied, 0),
		Bootstraps:      f.bootstraps.Load(),
		RejectedBatches: f.rejected.Load(),
		LastPollUnixMS:  f.lastPollMS.Load(),
	}
	if msg := f.lastErr.Load(); msg != nil {
		st.LastError = *msg
	}
	return st
}

// Run tails the stream until ctx is cancelled. Transport failures back
// off with jitter and never disturb the serving engine — the replica
// keeps answering reads at its applied sequence; damaged batches are
// rejected whole and re-fetched; a compacted-away tail position falls
// back to a snapshot re-bootstrap.
func (f *Follower) Run(ctx context.Context) {
	backoff := f.opts.Backoff
	for ctx.Err() == nil {
		progressed, err := f.poll(ctx)
		switch {
		case err == nil:
			backoff = f.opts.Backoff
			f.lastErr.Store(nil)
			if progressed {
				continue // more records are waiting: drain before idling
			}
			if f.opts.Sleep(ctx, f.opts.Jitter(f.opts.PollInterval)) != nil {
				return
			}
		case errors.Is(err, context.Canceled) || ctx.Err() != nil:
			return
		default:
			msg := err.Error()
			f.lastErr.Store(&msg)
			f.logf("repl: %s: %v", f.dataset, err)
			if f.opts.Sleep(ctx, f.opts.Jitter(backoff)) != nil {
				return
			}
			if backoff *= 2; backoff > f.opts.MaxBackoff {
				backoff = f.opts.MaxBackoff
			}
		}
	}
}

// poll runs one tail round trip. It reports whether the follower applied
// records and believes more are waiting (the caller then skips the idle
// sleep).
func (f *Follower) poll(ctx context.Context) (bool, error) {
	from := f.applied.Load()
	batch, err := f.client.Tail(ctx, f.dataset, from)
	switch {
	case errors.Is(err, wal.ErrGap) || errors.Is(err, wal.ErrAhead):
		// The primary cannot resume our position: records before its oldest
		// segment are gone (compaction passed us) or our lineage diverged.
		// Fall back to a fresh snapshot; Reset re-anchors the engine at the
		// new watermark in one publish.
		f.logf("repl: %s: %v; re-bootstrapping from snapshot", f.dataset, err)
		return true, f.rebootstrap(ctx)
	case errors.Is(err, wal.ErrChecksum) || errors.Is(err, wal.ErrCorrupt) || errors.Is(err, wal.ErrTruncated):
		// The batch arrived damaged. Nothing was applied — Tail validates
		// the whole batch before returning records — so the recovery is a
		// plain re-fetch.
		f.rejected.Add(1)
		return false, err
	case err != nil:
		return false, err
	}
	f.lastPollMS.Store(time.Now().UnixMilli())
	f.primarySeq.Store(batch.PrimarySeq)
	if len(batch.Records) == 0 {
		return false, nil
	}
	ops := make([]qfg.ReplayOp, len(batch.Records))
	for i, rec := range batch.Records {
		op, err := ToReplayOp(rec)
		if err != nil {
			f.rejected.Add(1)
			return false, err
		}
		ops[i] = op
	}
	if err := f.live.Replay(ops); err != nil {
		return false, err
	}
	f.applied.Store(batch.Records[len(batch.Records)-1].Seq)
	return f.applied.Load() < batch.PrimarySeq, nil
}

// rebootstrap replaces the serving engine with a fresh primary snapshot.
func (f *Follower) rebootstrap(ctx context.Context) error {
	ar, err := f.client.Snapshot(ctx, f.dataset)
	if err != nil {
		return err
	}
	f.live.Reset(ar.Snapshot)
	f.applied.Store(ar.WalSeq)
	if f.primarySeq.Load() < ar.WalSeq {
		f.primarySeq.Store(ar.WalSeq)
	}
	f.bootstraps.Add(1)
	f.lastPollMS.Store(time.Now().UnixMilli())
	return nil
}

func (f *Follower) logf(format string, args ...any) {
	if f.opts.Logger != nil {
		f.opts.Logger.Printf(format, args...)
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
