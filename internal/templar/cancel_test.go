package templar

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"templar/internal/datasets"
	"templar/internal/embedding"
	"templar/internal/fragment"
	"templar/internal/keyword"
	"templar/internal/qfg"
	"templar/internal/sqlparse"
)

// countingCtx reports itself canceled after a fixed number of Err()
// polls. It makes "the engine checks its context mid-flight" a
// deterministic assertion: work that never polls runs to completion and
// the test fails; work that polls aborts at a known point. The counter is
// atomic so the type is safe under -race.
type countingCtx struct {
	context.Context
	polls atomic.Int64
	after int64
}

func (c *countingCtx) Err() error {
	if c.polls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// masSystem builds a full MAS engine (QFG over the whole gold log), the
// same shape the serving layer hosts.
func masSystem(t testing.TB) *System {
	t.Helper()
	ds := datasets.MAS()
	entries := make([]sqlparse.LogEntry, 0, len(ds.Tasks))
	for _, task := range ds.Tasks {
		q, err := sqlparse.Parse(task.Gold)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, sqlparse.LogEntry{Query: q, Count: 1})
	}
	graph, err := qfg.Build(entries, fragment.NoConstOp)
	if err != nil {
		t.Fatal(err)
	}
	return NewLive(ds.DB, embedding.New(), graph, Options{LogJoin: true})
}

// wideKeywords is a request whose candidate sets multiply into hundreds
// of configurations, so the enumeration's periodic ctx poll (every 64
// leaves) must fire several times before completion.
func wideKeywords() []keyword.Keyword {
	return []keyword.Keyword{
		{Text: "papers", Meta: keyword.Metadata{Context: fragment.Select}},
		{Text: "authors", Meta: keyword.Metadata{Context: fragment.Select}},
		{Text: "conferences", Meta: keyword.Metadata{Context: fragment.Select}},
	}
}

// TestMapKeywordsCancelsMidEnumeration proves cancellation aborts the
// configuration cartesian product in-engine: with an uncanceled context
// the request yields hundreds of configurations, and a context that
// flips to canceled after a handful of polls kills the same request
// mid-enumeration with context.Canceled.
func TestMapKeywordsCancelsMidEnumeration(t *testing.T) {
	sys := masSystem(t)
	opts := &CallOptions{MaxCandidates: 8, MaxConfigurations: 100000}

	full, err := sys.MapKeywords(context.Background(), wideKeywords(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 128 {
		t.Fatalf("fixture too small to prove a mid-flight abort: %d configurations", len(full))
	}

	ctx := &countingCtx{Context: context.Background(), after: 4}
	configs, err := sys.MapKeywords(ctx, wideKeywords(), opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if configs != nil {
		t.Fatalf("canceled call still returned %d configurations", len(configs))
	}
	// The poll count proves the abort happened inside the enumeration:
	// more polls than the per-keyword checks alone, far fewer than a full
	// run would have issued.
	fullPolls := int64(len(wideKeywords())) + int64(len(full))/64 + 1
	if got := ctx.polls.Load(); got <= int64(len(wideKeywords())) || got >= fullPolls {
		t.Fatalf("polls = %d, want in (%d, %d): abort was not mid-enumeration",
			got, len(wideKeywords()), fullPolls)
	}
}

// TestInferJoinsCancelsMidSearch proves cancellation aborts the Steiner
// search between Dijkstra sweeps. The sanity call and the canceled call
// use different bags: inference results are memoized per bag, so reusing
// the warm bag would answer from the cache without ever searching.
func TestInferJoinsCancelsMidSearch(t *testing.T) {
	sys := masSystem(t)

	if _, err := sys.InferJoins(context.Background(), []string{"publication", "domain"}, &CallOptions{TopK: 3}); err != nil {
		t.Fatal(err)
	}

	bag := []string{"publication", "domain", "author", "conference"}
	ctx := &countingCtx{Context: context.Background(), after: 2}
	paths, err := sys.InferJoins(ctx, bag, &CallOptions{TopK: 3})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if paths != nil {
		t.Fatalf("canceled call still returned %d paths", len(paths))
	}
}

// TestInferJoinsCanceledCacheHit pins the cache-era contract: even when
// the bag's answer is memoized, an already-canceled request aborts
// instead of being handed a result it can no longer use.
func TestInferJoinsCanceledCacheHit(t *testing.T) {
	sys := masSystem(t)
	bag := []string{"publication", "domain", "author", "conference"}

	if _, err := sys.InferJoins(context.Background(), bag, &CallOptions{TopK: 3}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	paths, err := sys.InferJoins(ctx, bag, &CallOptions{TopK: 3})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if paths != nil {
		t.Fatalf("canceled call still returned %d paths", len(paths))
	}
}

// TestTranslateCanceledContext covers the one-call pipeline front: an
// already-canceled request context must abort before (or during) engine
// work, and the error must unwrap to context.Canceled for the serving
// layer's client-gone detection.
func TestTranslateCanceledContext(t *testing.T) {
	sys := masSystem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.Translate(ctx, wideKeywords(), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestTranslateCancelsMidPipeline drives the full pipeline with a context
// that cancels after the mapper finishes its polls, proving the
// per-configuration loop and the join search observe cancellation too.
func TestTranslateCancelsMidPipeline(t *testing.T) {
	sys := masSystem(t)
	kws := wideKeywords()

	if _, err := sys.Translate(context.Background(), kws, nil); err != nil {
		t.Fatal(err)
	}

	// Find how many polls an uncanceled translation issues end to end,
	// then cancel at every possible intermediate point. Whatever stage the
	// flip lands in must surface context.Canceled, never a partial result.
	probe := &countingCtx{Context: context.Background(), after: 1 << 30}
	if _, err := sys.Translate(probe, kws, nil); err != nil {
		t.Fatal(err)
	}
	total := probe.polls.Load()
	if total < 4 {
		t.Fatalf("pipeline issued only %d ctx polls; cancellation coverage is too sparse", total)
	}
	for after := int64(1); after < total; after += (total / 16) + 1 {
		ctx := &countingCtx{Context: context.Background(), after: after}
		tr, err := sys.Translate(ctx, kws, nil)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("after %d polls: err = %v, want context.Canceled", after, err)
		}
		if tr != nil {
			t.Fatalf("after %d polls: canceled translation still returned %q", after, tr.SQL)
		}
	}
}

// TestObscurityOverride exercises the per-request obscurity assertion:
// the mined level round-trips, and a mismatching assertion fails with the
// typed error instead of silently rescoring.
func TestObscurityOverride(t *testing.T) {
	sys := masSystem(t)
	kws := wideKeywords()[:1]

	mined := fragment.NoConstOp
	if _, err := sys.MapKeywords(context.Background(), kws, &CallOptions{Obscurity: &mined}); err != nil {
		t.Fatalf("matching obscurity rejected: %v", err)
	}

	full := fragment.Full
	_, err := sys.MapKeywords(context.Background(), kws, &CallOptions{Obscurity: &full})
	var mismatch *keyword.ObscurityMismatchError
	if !errors.As(err, &mismatch) {
		t.Fatalf("err = %v, want *keyword.ObscurityMismatchError", err)
	}
	if mismatch.Want != fragment.Full || mismatch.Have != fragment.NoConstOp {
		t.Fatalf("mismatch = %+v", mismatch)
	}
	if want := fmt.Sprintf("%v", mismatch); want == "" {
		t.Fatal("empty error text")
	}
}
