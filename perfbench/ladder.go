package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"templar/internal/keyword"
	"templar/internal/serve"
	"templar/internal/store"
	"templar/internal/templar"
	"templar/internal/wal"
	"templar/internal/workload"
	"templar/pkg/client"
)

// Ladder and probe sizes of the traced run.
const (
	// ladderN is how many inputs each rung replays per read operation.
	ladderN = 600
	// ladderAppends is how many appends each rung replays.
	ladderAppends = 20
	// publishProbes is how many direct publishes the write-path probe
	// times.
	publishProbes = 30
	// storeProbes is how many archive writes, opens and compactions are
	// timed.
	storeProbes = 3
)

// traced is the traced run: the same set-up and inputs as the end-to-end
// run, an untraced and a traced measured phase (their difference is the
// tracing overhead), the checks, then the layer ladder and the write-path
// probes, all timed with spans recorded around calls into each layer.
func (b *bench) traced(path string) (*result, error) {
	tr := newTracer()
	if _, err := b.setup(1, tr); err != nil {
		return nil, err
	}
	defer b.f.close()
	fragments, edges := b.workingQFG()
	ln, err := listen(b.f.srv.Handler())
	if err != nil {
		return nil, err
	}
	defer ln.stop()
	c, err := newClient(ln.base)
	if err != nil {
		return nil, err
	}
	if err := b.warmUp(c); err != nil {
		return nil, err
	}
	half := max(b.dur/2, time.Second)
	plain, err := b.measure(c, half, nil)
	if err != nil {
		return nil, err
	}
	// The traced phase replays the second half of the stream, so a cold
	// workload stays cold.
	b.in.reads = b.in.reads[len(b.in.reads)/2:]
	withSpans, err := b.measure(c, half, tr)
	if err != nil {
		return nil, err
	}
	b.checkReads(c)
	b.checkWrites()

	m := make(map[string]metric)
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	if err := b.ladder(c, tr, put); err != nil {
		return nil, err
	}
	if err := b.writeProbes(tr, put); err != nil {
		return nil, err
	}

	put("sqlparse.parse_us", us(quantile(tr.durations("sqlparse.parse"), 0.5)), "us")
	put("qfg.build_ms", ms(sum(tr.durations("qfg.build"))), "ms")
	put("qfg.compile_ms", ms(sum(tr.durations("qfg.compile"))), "ms")
	put("qfg.fragments", float64(fragments), "count")
	put("qfg.edges", float64(edges), "count")
	completed := float64(max(plain.completed(), 1))
	put("runtime.gc_cycles_per_1k_req", float64(plain.after.gcCycles-plain.before.gcCycles)/completed*1000, "count")
	put("runtime.gc_pause_ms.p99", pauseQuantile(plain.before, plain.after, 0.99), "ms")
	put("loadgen.late_p99_ms", ms(quantile(plain.gen, 0.99)), "ms")
	kw, bags := workingSet(plain.sent)
	put("loadgen.distinct_keywords", float64(kw), "count")
	put("loadgen.distinct_bags", float64(bags), "count")
	put("trace.overhead_pct", 100*(meanLatency(withSpans)/meanLatency(plain)-1), "%")

	if err := tr.write(path); err != nil {
		return nil, err
	}
	info("spans=%d written to %s", len(tr.spans), path)
	attempted := plain.attempted + withSpans.attempted
	failed := plain.failed + withSpans.failed
	return &result{Correct: len(b.failures) == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// workingQFG reports the fragments and edges of the QFGs the workload
// reads.
func (b *bench) workingQFG() (fragments, edges int) {
	tenants := []*serve.Tenant{b.f.synth}
	if b.wl == wlGoldHot {
		tenants = nil
		for _, g := range b.in.gold {
			tenants = append(tenants, b.f.gold[g.ds.Name])
		}
	}
	for _, t := range tenants {
		s := t.Sys.Live().CurrentSnapshot()
		fragments += s.Vertices()
		edges += s.Edges()
	}
	return fragments, edges
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func meanLatency(st *runStats) float64 {
	var n int
	var t time.Duration
	for _, l := range st.lat {
		for _, x := range l {
			n++
			t += x.lat
		}
	}
	return float64(t) / float64(max(n, 1))
}

// ladderInputs takes n requests of each read operation from the ladder
// stream, in stream order.
func ladderInputs(stream []workload.Request, n int) [numOps][]*workload.Request {
	var out [numOps][]*workload.Request
	for i := range stream {
		o := opOf(&stream[i])
		if len(out[o]) < n {
			out[o] = append(out[o], &stream[i])
		}
	}
	return out
}

// ladder replays seeded inputs through four rungs: the keyword and
// joinpath calls, templar.System.Translate, the serve handler in-process
// (httptest, no socket), and pkg/client over loopback. Each rung gets its
// own slice of the ladder stream, drawn from the workload's distribution,
// so a cold workload's later rungs do not run on caches the earlier rungs
// filled.
func (b *bench) ladder(c *client.Client, tr *tracer, put func(string, float64, string)) error {
	ctx := context.Background()
	const rungs = 4
	in := ladderInputs(b.in.ladder, rungs*ladderN)
	slice := func(o op, rung int) []*workload.Request {
		n := len(in[o]) / rungs
		return in[o][rung*n : (rung+1)*n]
	}
	sysOf := func(r *workload.Request) *templar.System { return b.f.reg.Get(r.Dataset).Sys }

	// Rung 1: keyword mapping and join inference.
	maps := slice(opMap, 0)
	mapKWs := make([][]keyword.Keyword, len(maps))
	for i, r := range maps {
		var err error
		if mapKWs[i], err = engineKeywords(r.MapKeywords.KeywordsInput); err != nil {
			return err
		}
	}
	d, allocs, err := timeEach(tr, "keyword.map", len(maps), func(i int) error {
		_, err := sysOf(maps[i]).Mapper().MapKeywordsCtx(ctx, mapKWs[i], keyword.CallOptions{TopK: maps[i].MapKeywords.TopK})
		return err
	})
	if err != nil {
		return err
	}
	put("keyword.map_us.p50", us(quantile(d, 0.5)), "us")
	put("keyword.map_us.p99", us(quantile(d, 0.99)), "us")
	put("keyword.map_allocs", allocs, "allocs")
	infers := slice(opInfer, 0)
	d, allocs, err = timeEach(tr, "joinpath.infer", len(infers), func(i int) error {
		r := infers[i]
		_, err := sysOf(r).Joins().InferCtx(ctx, r.InferJoins.Relations, r.InferJoins.TopK)
		return err
	})
	if err != nil {
		return err
	}
	put("joinpath.infer_us.p50", us(quantile(d, 0.5)), "us")
	put("joinpath.infer_us.p99", us(quantile(d, 0.99)), "us")
	put("joinpath.infer_allocs", allocs, "allocs")

	// Rung 2: the whole engine pipeline, one query at a time.
	type query struct {
		sys *templar.System
		kws []keyword.Keyword
	}
	var queries []query
	for _, r := range slice(opTranslate, 1) {
		for _, q := range r.Translate.Queries {
			kws, err := engineKeywords(q)
			if err != nil {
				return err
			}
			queries = append(queries, query{sysOf(r), kws})
		}
	}
	d, allocs, err = timeEach(tr, "templar.translate", len(queries), func(i int) error {
		_, err := queries[i].sys.Translate(ctx, queries[i].kws, nil)
		return err
	})
	if err != nil {
		return err
	}
	put("templar.translate_us.p50", us(quantile(d, 0.5)), "us")
	put("templar.translate_us.p99", us(quantile(d, 0.99)), "us")
	put("templar.translate_allocs", allocs, "allocs")

	// Rungs 3 and 4 per operation: the handler without a socket, then the
	// SDK over loopback.
	appends := b.in.appends[len(b.in.appends)/2:][:2*ladderAppends]
	h := b.f.srv.Handler()
	for o := op(0); o < numOps; o++ {
		var handlerIn, clientIn []*workload.Request
		if o == opAppend {
			for i := range appends {
				if i < ladderAppends {
					handlerIn = append(handlerIn, &appends[i])
				} else {
					clientIn = append(clientIn, &appends[i])
				}
			}
		} else {
			handlerIn, clientIn = slice(o, 2), slice(o, 3)
		}
		hd, hallocs, err := b.handlerRung(h, tr, o, handlerIn)
		if err != nil {
			return err
		}
		cd, _, err := timeEach(tr, "client.loopback."+opNames[o], len(clientIn), func(i int) error {
			_, err := execute(ctx, c, clientIn[i])
			return err
		})
		if err != nil {
			return err
		}
		put("serve.handler_us."+opNames[o], us(quantile(hd, 0.5)), "us")
		put("serve.handler_allocs."+opNames[o], hallocs, "allocs")
		put("client.loopback_us."+opNames[o], us(quantile(cd, 0.5)), "us")
		put("client.wire_us."+opNames[o], us(quantile(cd, 0.5)-quantile(hd, 0.5)), "us")
	}
	return nil
}

// timeEach calls fn(i) for i in [0, n) inside spans named name and
// returns the durations and the heap allocations per call. The calls run
// one at a time on this goroutine.
func timeEach(tr *tracer, name string, n int, fn func(i int) error) ([]time.Duration, float64, error) {
	out := make([]time.Duration, 0, n)
	before := readRuntime()
	for i := 0; i < n; i++ {
		sp := tr.begin(name, -1, uint64(i)+1)
		t0 := time.Now()
		err := fn(i)
		d := time.Since(t0)
		tr.end(sp)
		if err != nil {
			return nil, 0, fmt.Errorf("%s input %d: %w", name, i, err)
		}
		out = append(out, d)
	}
	after := readRuntime()
	return out, float64(after.allocObjects-before.allocObjects) / float64(max(n, 1)), nil
}

// handlerRung serves each request through the server's handler with an
// in-memory recorder. Requests and recorders are built before timing.
func (b *bench) handlerRung(h http.Handler, tr *tracer, o op, reqs []*workload.Request) ([]time.Duration, float64, error) {
	route := map[op]string{opMap: "map-keywords", opInfer: "infer-joins", opTranslate: "translate", opAppend: "log"}[o]
	type call struct {
		req *http.Request
		rec *httptest.ResponseRecorder
	}
	calls := make([]call, len(reqs))
	for i, r := range reqs {
		var body any
		switch o {
		case opMap:
			body = r.MapKeywords
		case opInfer:
			body = r.InferJoins
		case opTranslate:
			body = r.Translate
		default:
			body = r.LogAppend
		}
		raw, err := json.Marshal(body)
		if err != nil {
			return nil, 0, err
		}
		req := httptest.NewRequest(http.MethodPost, "/v2/"+r.Dataset+"/"+route, bytes.NewReader(raw))
		req.Header.Set("Content-Type", "application/json")
		calls[i] = call{req: req, rec: httptest.NewRecorder()}
	}
	return timeEach(tr, "serve.handler."+opNames[o], len(calls), func(i int) error {
		h.ServeHTTP(calls[i].rec, calls[i].req)
		if calls[i].rec.Code != http.StatusOK {
			return fmt.Errorf("handler status %d: %s", calls[i].rec.Code, calls[i].rec.Body.String())
		}
		return nil
	})
}

// writeProbes times the write path's layers directly on synth: parse, a
// WAL append with fsync (on a scratch log, so synth's own WAL is left
// alone), the publish, the first read after it and a repeat of that read,
// then archive writes and opens and forced compactions.
func (b *bench) writeProbes(tr *tracer, put func(string, float64, string)) error {
	ctx := context.Background()
	sys := b.f.synth.Sys
	live := sys.Live()
	scratch, _, err := wal.Open(filepath.Join(b.dir, "probe-wal"), synthName, walOptions)
	if err != nil {
		return err
	}
	defer scratch.Close()
	var readKW []keyword.Keyword
	for i := range b.in.ladder {
		if r := &b.in.ladder[i]; r.Op == workload.OpTranslate && r.Dataset == synthName {
			if readKW, err = engineKeywords(r.Translate.Queries[0]); err != nil {
				return err
			}
			break
		}
	}
	if readKW == nil {
		// gold-hot's ladder has no synth reads: use a synth read of the
		// append stream's profile.
		if readKW, err = engineKeywords(b.in.synth.profile.Keywords[0]); err != nil {
			return err
		}
	}
	var walD, pubD, firstD, repeatD []time.Duration
	probes := b.in.appends[len(b.in.appends)-appendProbeN-publishProbes : len(b.in.appends)-appendProbeN]
	for i := range probes {
		req := probes[i].LogAppend
		root := tr.begin("probe.append", -1, uint64(i)+1)
		sp := tr.begin("probe.parse", root, uint64(i)+1)
		op, err := replayOp(req)
		tr.end(sp)
		if err != nil {
			return err
		}
		rec := &wal.Record{Session: req.Session, Entries: make([]wal.Entry, len(req.Queries))}
		for j, e := range req.Queries {
			rec.Entries[j] = wal.Entry{SQL: e.SQL, Count: max(e.Count, 1)}
		}
		if req.Session {
			rec.Count, rec.Decay = op.Count, op.Decay
		}
		sp = tr.begin("wal.append", root, uint64(i)+1)
		t0 := time.Now()
		_, err = scratch.Append(rec)
		walD = append(walD, time.Since(t0))
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("qfg.publish", root, uint64(i)+1)
		t0 = time.Now()
		if op.Session {
			err = live.AddSession(op.Queries, op.Count, op.Decay)
		} else {
			live.AddQueries(op.Queries, op.Counts)
		}
		pubD = append(pubD, time.Since(t0))
		tr.end(sp)
		if err != nil {
			return err
		}
		tr.end(root)
		for _, dst := range []*[]time.Duration{&firstD, &repeatD} {
			name := "templar.first_read"
			if dst == &repeatD {
				name = "templar.repeat_read"
			}
			sp = tr.begin(name, -1, uint64(i)+1)
			t0 = time.Now()
			_, err = sys.Translate(ctx, readKW, nil)
			*dst = append(*dst, time.Since(t0))
			tr.end(sp)
			if err != nil {
				return err
			}
		}
	}
	put("wal.append_us.p50", us(quantile(walD, 0.5)), "us")
	put("wal.append_us.p90", us(quantile(walD, 0.9)), "us")
	put("qfg.publish_ms.p50", ms(quantile(pubD, 0.5)), "ms")
	put("qfg.publish_ms.p90", ms(quantile(pubD, 0.9)), "ms")
	put("templar.first_read_after_publish_us", us(quantile(firstD, 0.5)), "us")
	put("templar.repeat_read_after_publish_us", us(quantile(repeatD, 0.5)), "us")

	archive := filepath.Join(b.dir, "probe-"+store.Filename(synthName))
	var writeD, openD, compactD []time.Duration
	for i := 0; i < storeProbes; i++ {
		sp := tr.begin("store.write", -1, uint64(i)+1)
		t0 := time.Now()
		err := store.WriteFileAt(archive, synthName, live.CurrentSnapshot(), uint64(i))
		writeD = append(writeD, time.Since(t0))
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("store.open", -1, uint64(i)+1)
		t0 = time.Now()
		mapped, err := store.Open(archive)
		openD = append(openD, time.Since(t0))
		tr.end(sp)
		if err != nil {
			return err
		}
		mapped.Close()
		sp = tr.begin("serve.compact", -1, uint64(i)+1)
		t0 = time.Now()
		_, err = serve.NewCompactor(b.f.reg, 0, time.Hour).CompactTenant(b.f.synth, true)
		compactD = append(compactD, time.Since(t0))
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	put("store.write_ms", ms(quantile(writeD, 0.5)), "ms")
	put("store.open_ms", ms(quantile(openD, 0.5)), "ms")
	put("serve.compact_ms", ms(quantile(compactD, 0.5)), "ms")
	return nil
}
