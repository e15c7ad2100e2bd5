package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sync"
	"time"

	"templar/internal/serve"
	"templar/internal/workload"
	"templar/pkg/api"
	"templar/pkg/client"
)

const (
	// appendEvery puts one log append after every this many reads of
	// synth-write's stream: at synth's publish cost, publish work then
	// uses about a quarter of one core.
	appendEvery = 400
	// compactEvery forces a compaction of synth after every this many
	// acknowledged appends, so compaction runs on a repeatable schedule.
	compactEvery = 25
	// appendProbeTime is how long the read workloads' append probe runs,
	// and appendProbeN the most appends it sends.
	appendProbeTime = 8 * time.Second
	appendProbeN    = 400
	// warmUpTime is the closed-loop warm-up before every measured phase.
	warmUpTime = time.Second
)

// fingerprint hashes everything the program will be sent: the read and
// append streams and the synth log.
func fingerprint(in *inputs) string {
	h := sha256.New()
	h.Write([]byte(workload.Fingerprint(in.reads)))
	h.Write([]byte(workload.Fingerprint(in.appends)))
	for _, s := range in.synth.log {
		h.Write([]byte(s))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// warmUp brings the process to steady state before timing. gold-hot first
// sends every distinct gold input once, so its measured phase runs on warm
// caches; every workload then runs a closed loop over a stream disjoint
// from the measured one.
func (b *bench) warmUp(c *client.Client) error {
	ctx := context.Background()
	if b.wl == wlGoldHot {
		for _, g := range b.in.gold {
			p, err := workload.MineProfile(g.ds)
			if err != nil {
				return err
			}
			for _, k := range p.Keywords {
				if _, err := c.MapKeywords(ctx, p.Name, api.MapKeywordsRequest{KeywordsInput: k}); err != nil {
					return fmt.Errorf("warm-up map %s: %w", p.Name, err)
				}
				if _, err := c.Translate(ctx, p.Name, api.TranslateRequest{Queries: []api.KeywordsInput{k}}); err != nil {
					return fmt.Errorf("warm-up translate %s: %w", p.Name, err)
				}
			}
			for _, bag := range p.RelationBags {
				if _, err := c.InferJoins(ctx, p.Name, api.InferJoinsRequest{Relations: bag}); err != nil {
					return fmt.Errorf("warm-up infer %s: %w", p.Name, err)
				}
			}
		}
	}
	st := closedLoop(c, b.in.warm, conns, warmUpTime, nil, nil)
	if st.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed: %v", st.failed, st.attempted, st.firstErr)
	}
	return nil
}

// compactor returns an ack callback that forces a compaction of synth
// after every compactEvery acknowledged appends, on the goroutine that
// received the ack, and a function reporting the first compaction error.
func (b *bench) compactor(tr *tracer) (onAck func(), errOf func() error) {
	var mu sync.Mutex
	var acked int
	var first error
	onAck = func() {
		mu.Lock()
		acked++
		due := acked%compactEvery == 0
		mu.Unlock()
		if !due {
			return
		}
		sp := tr.begin("serve.compact", -1, 0)
		_, err := serve.NewCompactor(b.f.reg, 0, time.Hour).CompactTenant(b.f.synth, true)
		tr.end(sp)
		if err != nil {
			mu.Lock()
			if first == nil {
				first = err
			}
			mu.Unlock()
		}
	}
	errOf = func() error {
		mu.Lock()
		defer mu.Unlock()
		if first != nil {
			return fmt.Errorf("compaction: %w", first)
		}
		return nil
	}
	return onAck, errOf
}

// measure runs the workload's measured phase: a closed loop over the
// measured stream (synth-write's carries log appends).
func (b *bench) measure(c *client.Client, dur time.Duration, tr *tracer) (*runStats, error) {
	onAck, errOf := b.compactor(tr)
	st := closedLoop(c, b.in.reads, conns, dur, onAck, tr)
	if err := errOf(); err != nil {
		return nil, err
	}
	b.acks = append(b.acks, st.acks...)
	return st, nil
}

// appendProbe measures appends for the read workloads, which send none
// while they measure: for appendProbeTime, one connection sends appends to
// synth back to back, compacting on synth-write's schedule, while the
// other replays the warm-up read stream. Spreading the appends over a
// loaded stretch of time, as synth-write does, keeps their latency from
// hanging on one burst of the machine's speed or one garbage collection.
func (b *bench) appendProbe(c *client.Client) (*runStats, error) {
	ctx := context.Background()
	st := &runStats{}
	onAck, errOf := b.compactor(nil)
	reqs := b.in.appends[len(b.in.appends)-appendProbeN:]
	var reads *runStats
	done := make(chan struct{})
	go func() {
		defer close(done)
		reads = closedLoop(c, b.in.warm, 1, appendProbeTime, nil, nil)
	}()
	deadline := time.Now().Add(appendProbeTime)
	for i := 0; i < len(reqs) && time.Now().Before(deadline); i++ {
		t0 := time.Now()
		seq, err := execute(ctx, c, &reqs[i])
		st.record(opAppend, 0, time.Since(t0), err)
		if err == nil {
			st.acks = append(st.acks, ack{seq: seq, req: reqs[i].LogAppend})
			onAck()
		}
	}
	<-done
	if err := errOf(); err != nil {
		return nil, err
	}
	st.attempted += reads.attempted
	st.failed += reads.failed
	if st.firstErr == nil {
		st.firstErr = reads.firstErr
	}
	if st.failed > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: append probe failure:", st.firstErr)
	}
	b.acks = append(b.acks, st.acks...)
	return st, nil
}
