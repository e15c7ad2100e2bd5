package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"templar/internal/embedding"
	"templar/internal/eval"
	"templar/internal/fragment"
	"templar/internal/joinpath"
	"templar/internal/keyword"
	"templar/internal/qfg"
	"templar/internal/serve"
	"templar/internal/sqlparse"
	"templar/internal/store"
	"templar/internal/templar"
	"templar/internal/workload"
	"templar/pkg/api"
	"templar/pkg/client"
)

// goldenDir holds the committed golden corpora, relative to the
// repository root the benchmark runs from.
const goldenDir = "internal/eval/testdata/golden"

// probeSample is how many requests of the measured stream synth-cold's
// check replays against an independently built synth.
const probeSample = 300

// checkReads runs the read workloads' answer checks after the measured
// phase. Failures are recorded with b.fail.
func (b *bench) checkReads(c *client.Client) {
	var err error
	switch b.wl {
	case wlGoldHot:
		err = b.checkGolden()
	case wlSynthCold:
		err = b.checkProbes(c)
	}
	if err != nil {
		b.fail("%v", err)
	}
}

// checkGolden replays each gold tenant's golden battery through the served
// system and diffs it against the committed corpus.
func (b *bench) checkGolden() error {
	for _, g := range b.in.gold {
		t := b.f.gold[g.ds.Name]
		got, err := eval.ReplayGolden(g.ds, t.Sys, g.ob, eval.DefaultGoldenOptions())
		if err != nil {
			return fmt.Errorf("golden replay %s: %w", g.ds.Name, err)
		}
		raw, err := os.ReadFile(filepath.Join(goldenDir, eval.GoldenFilename(g.ds.Name, g.ob)))
		if err != nil {
			return fmt.Errorf("golden corpus: %w", err)
		}
		want, err := eval.DecodeGolden(raw)
		if err != nil {
			return err
		}
		if diff := eval.DiffGolden(want, got); len(diff) > 0 {
			b.fail("%s/%s golden diff (%d): %s", g.ds.Name, g.ob, len(diff), diff[0])
		}
	}
	return nil
}

// checkProbes replays a fixed sample of the measured stream over HTTP and
// directly against a synth tenant built independently from the same
// seed, and requires equal answers.
func (b *bench) checkProbes(c *client.Client) error {
	ref := generateSynth(b.seed)
	t, err := bootTenant(synthName, ref.db, ref.log, fragment.Full, nil, -1)
	if err != nil {
		return err
	}
	ctx := context.Background()
	for i := 0; i < probeSample; i++ {
		r := &b.in.reads[i]
		got, err := answerHTTP(ctx, c, r)
		if err != nil {
			return fmt.Errorf("probe %d: %w", i, err)
		}
		want, err := answerDirect(ctx, t.Sys, r)
		if err != nil {
			return fmt.Errorf("probe %d: %w", i, err)
		}
		if !bytes.Equal(got, want) {
			b.fail("probe %d (%s): served %s, direct %s", i, r.Op, got, want)
		}
	}
	return nil
}

// The probe answers are reduced to what both paths carry: fragments,
// scores, join paths and SQL, or the error text.
type configAnswer struct {
	Fragments []string
	Sim, QFG  float64
	Score     float64
}

type pathAnswer struct {
	Relations []string
	Edges     []string
	Weight    float64
	Goodness  float64
}

type translateAnswer struct {
	SQL   string
	Score float64
	Tie   bool
	Err   string
}

func answerHTTP(ctx context.Context, c *client.Client, r *workload.Request) ([]byte, error) {
	switch r.Op {
	case workload.OpMapKeywords:
		resp, err := c.MapKeywords(ctx, r.Dataset, *r.MapKeywords)
		if err != nil {
			return nil, err
		}
		out := make([]configAnswer, len(resp.Configurations))
		for i, cfg := range resp.Configurations {
			out[i] = configAnswer{Sim: cfg.SimScore, QFG: cfg.QFGScore, Score: cfg.Score}
			for _, mp := range cfg.Mappings {
				out[i].Fragments = append(out[i].Fragments, mp.Fragment)
			}
		}
		return json.Marshal(out)
	case workload.OpInferJoins:
		resp, err := c.InferJoins(ctx, r.Dataset, *r.InferJoins)
		if err != nil {
			return nil, err
		}
		out := make([]pathAnswer, len(resp.Paths))
		for i, p := range resp.Paths {
			out[i] = pathAnswer{Relations: p.Relations, Weight: p.TotalWeight, Goodness: p.Goodness}
			for _, e := range p.Edges {
				out[i].Edges = append(out[i].Edges, e.Join)
			}
		}
		return json.Marshal(out)
	default:
		resp, err := c.Translate(ctx, r.Dataset, *r.Translate)
		if err != nil {
			return nil, err
		}
		out := make([]translateAnswer, len(resp.Results))
		for i, res := range resp.Results {
			out[i] = translateAnswer{SQL: res.SQL, Score: res.Score, Tie: res.Tie}
			if res.Error != nil {
				out[i].Err = res.Error.Detail
			}
		}
		return json.Marshal(out)
	}
}

func answerDirect(ctx context.Context, sys *templar.System, r *workload.Request) ([]byte, error) {
	switch r.Op {
	case workload.OpMapKeywords:
		kws, err := engineKeywords(r.MapKeywords.KeywordsInput)
		if err != nil {
			return nil, err
		}
		cfgs, err := sys.MapKeywords(ctx, kws, &templar.CallOptions{TopK: r.MapKeywords.TopK})
		if err != nil {
			return nil, err
		}
		return json.Marshal(configAnswers(cfgs))
	case workload.OpInferJoins:
		topK := r.InferJoins.TopK
		if topK <= 0 {
			topK = 3 // the route default
		}
		paths, err := sys.InferJoins(ctx, r.InferJoins.Relations, &templar.CallOptions{TopK: topK})
		if err != nil {
			return nil, err
		}
		return json.Marshal(pathAnswers(paths))
	default:
		out := make([]translateAnswer, len(r.Translate.Queries))
		for i, q := range r.Translate.Queries {
			kws, err := engineKeywords(q)
			if err != nil {
				return nil, err
			}
			tr, err := sys.Translate(ctx, kws, nil)
			if err != nil {
				out[i].Err = err.Error()
				continue
			}
			out[i] = translateAnswer{SQL: tr.SQL, Score: tr.Score, Tie: tr.Tie}
		}
		return json.Marshal(out)
	}
}

func configAnswers(cfgs []keyword.Configuration) []configAnswer {
	out := make([]configAnswer, len(cfgs))
	for i, cfg := range cfgs {
		out[i] = configAnswer{Sim: cfg.SimScore, QFG: cfg.QFGScore, Score: cfg.Score}
		for _, mp := range cfg.Mappings {
			out[i].Fragments = append(out[i].Fragments, mp.Fragment(fragment.Full).String())
		}
	}
	return out
}

func pathAnswers(paths []joinpath.Path) []pathAnswer {
	out := make([]pathAnswer, len(paths))
	for i, p := range paths {
		out[i] = pathAnswer{Relations: p.Relations, Weight: p.TotalWeight, Goodness: p.Goodness}
		for _, e := range p.Edges {
			out[i].Edges = append(out[i].Edges, e.String())
		}
	}
	return out
}

// checkWrites verifies synth's durable state once every append is
// acknowledged: the served snapshot equals a fresh build of the synthetic
// log plus every acknowledged append in WAL order, the WAL ends at the
// number of acks, and reopening from the compacted archive plus the WAL
// tail serves the same snapshot. Failures are recorded with b.fail.
func (b *bench) checkWrites() {
	if err := b.verifyWrites(); err != nil {
		b.fail("%v", err)
	}
}

func (b *bench) verifyWrites() error {
	served := store.Encode(synthName, b.f.synth.Sys.Live().CurrentSnapshot())

	acks := append([]ack(nil), b.acks...)
	sort.Slice(acks, func(i, j int) bool { return acks[i].seq < acks[j].seq })
	for i, a := range acks {
		if a.seq != int64(i+1) {
			return fmt.Errorf("acknowledged WAL sequences are not 1..%d: position %d holds %d", len(acks), i, a.seq)
		}
	}
	if last := b.f.synth.WAL.LastSeq(); last != uint64(len(acks)) {
		b.fail("WAL last sequence %d, acknowledged appends %d", last, len(acks))
	}

	fresh, err := freshSynth(b.in.synth.log)
	if err != nil {
		return err
	}
	ops := make([]qfg.ReplayOp, len(acks))
	for i, a := range acks {
		if ops[i], err = replayOp(a.req); err != nil {
			return err
		}
	}
	if err := fresh.Replay(ops); err != nil {
		return err
	}
	if !bytes.Equal(served, store.Encode(synthName, fresh.CurrentSnapshot())) {
		b.fail("served synth snapshot differs from a fresh build of the log plus %d acknowledged appends", len(acks))
	}

	reopened, err := b.reopen()
	if err != nil {
		return err
	}
	if !bytes.Equal(served, reopened) {
		b.fail("synth reopened from its archive and WAL tail serves a different snapshot")
	}
	return nil
}

// freshSynth builds synth's live log from its SQL log alone.
func freshSynth(log []string) (*qfg.Live, error) {
	entries := make([]sqlparse.LogEntry, len(log))
	for i, s := range log {
		q, err := sqlparse.Parse(s)
		if err != nil {
			return nil, err
		}
		entries[i] = sqlparse.LogEntry{Query: q, Count: 1}
	}
	g, err := qfg.Build(entries, fragment.Full)
	if err != nil {
		return nil, err
	}
	return qfg.NewLive(g), nil
}

// replayOp turns an acknowledged append back into the operation the
// server applied, normalized the way the serving layer normalizes it.
func replayOp(req *api.LogAppendRequest) (qfg.ReplayOp, error) {
	op := qfg.ReplayOp{Session: req.Session}
	for _, e := range req.Queries {
		q, err := sqlparse.Parse(e.SQL)
		if err == nil {
			err = q.Resolve(nil)
		}
		if err != nil {
			return op, err
		}
		op.Queries = append(op.Queries, q)
		op.Counts = append(op.Counts, max(e.Count, 1))
	}
	if req.Session {
		op.Counts = nil
		op.Count, op.Decay = 1, req.Decay
		if op.Decay == 0 {
			op.Decay = 0.5
		}
	}
	return op, nil
}

// reopen copies synth's archive and WAL aside, boots a tenant from the
// copies the way a restarting server does, and returns the snapshot it
// serves, encoded.
func (b *bench) reopen() ([]byte, error) {
	dir := filepath.Join(b.dir, "reopen")
	if err := freshDir(dir); err != nil {
		return nil, err
	}
	walDir := filepath.Join(dir, "wal")
	if err := copyDir(b.f.walDir, walDir); err != nil {
		return nil, err
	}
	storePath := filepath.Join(dir, filepath.Base(b.f.storePath))
	var live *qfg.Live
	var seq uint64
	switch err := copyFile(b.f.storePath, storePath); {
	case err == nil:
		m, err := store.Open(storePath)
		if err != nil {
			return nil, err
		}
		defer m.Close()
		live, seq = qfg.NewLiveFromSnapshot(m.Snapshot), m.WalSeq
	case os.IsNotExist(err):
		// No compaction ran: the whole log replays from the WAL.
		if live, err = freshSynth(b.in.synth.log); err != nil {
			return nil, err
		}
	default:
		return nil, err
	}
	t := &serve.Tenant{
		Name:        synthName,
		Sys:         templar.NewLive(b.in.synth.db, embedding.New(), live, engineOptions(fragment.Full)),
		StorePath:   storePath,
		SnapshotSeq: seq,
	}
	if _, err := serve.AttachWAL(t, walDir, walOptions); err != nil {
		return nil, err
	}
	defer t.WAL.Close()
	return store.Encode(synthName, live.CurrentSnapshot()), nil
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if e.Type().IsRegular() {
			if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
