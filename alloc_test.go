package templar

import (
	"context"
	"testing"

	"templar/internal/datasets"
	"templar/internal/embedding"
	"templar/internal/fragment"
	"templar/internal/keyword"
	"templar/internal/qfg"
	"templar/internal/sqlparse"
	templarpkg "templar/internal/templar"
)

// Allocation-regression gates for the serving hot path. The ceilings are
// roughly 2× the steady-state measurements on the reference machine (see
// BENCH_2026-08-07.json), loose enough to absorb runtime and compiler
// noise but tight enough that reintroducing a per-call copy of the
// candidate table, the Dijkstra state, or the configuration cross-product
// fails loudly. If a deliberate change moves the floor, re-measure with
// `make alloc-check` and adjust the ceiling alongside the change.
const (
	maxAllocsMapKeywords = 150 // measured ~74/op
	maxAllocsInferJoins  = 30  // measured ~2/op (cache hit)
	maxAllocsTranslate   = 400 // measured ~201/op
)

func allocSystem(t testing.TB) (*templarpkg.System, *datasets.Dataset) {
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
	sys := templarpkg.NewLive(ds.DB, embedding.New(), graph, templarpkg.Options{
		Keyword: keyword.Options{K: 5, Lambda: 0.8},
		LogJoin: true,
	})
	return sys, ds
}

// TestMapKeywordsAllocCeiling pins steady-state MAPKEYWORDS allocations:
// after the first call has warmed the candidate index and similarity
// cache, the per-call cost is the result slice plus the configuration
// rows — the enumeration scratch all comes from the arena pool.
func TestMapKeywordsAllocCeiling(t *testing.T) {
	sys, ds := allocSystem(t)
	ctx := context.Background()
	kws := ds.Tasks[0].Keywords
	if _, err := sys.MapKeywords(ctx, kws, nil); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(50, func() {
		if _, err := sys.MapKeywords(ctx, kws, nil); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("MapKeywords: %.1f allocs/op (ceiling %d)", avg, maxAllocsMapKeywords)
	if avg > maxAllocsMapKeywords {
		t.Fatalf("MapKeywords allocates %.1f/op, ceiling is %d — a hot-path copy crept back in", avg, maxAllocsMapKeywords)
	}
}

// TestInferJoinsAllocCeiling pins steady-state INFERJOINS allocations:
// a warm relation bag answers from the generator's inference cache, so
// the per-call cost is the trimmed top-level path slice and the key
// scratch, not a Steiner expansion.
func TestInferJoinsAllocCeiling(t *testing.T) {
	sys, _ := allocSystem(t)
	ctx := context.Background()
	bag := []string{"publication", "author", "writes"}
	if _, err := sys.InferJoins(ctx, bag, nil); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(50, func() {
		if _, err := sys.InferJoins(ctx, bag, nil); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("InferJoins: %.1f allocs/op (ceiling %d)", avg, maxAllocsInferJoins)
	if avg > maxAllocsInferJoins {
		t.Fatalf("InferJoins allocates %.1f/op, ceiling is %d — the inference cache or path trim regressed", avg, maxAllocsInferJoins)
	}
}

// TestTranslateAllocCeiling pins the whole in-process pipeline
// (MAPKEYWORDS → INFERJOINS → SQL construction → ranking) at steady
// state, the floor under BenchmarkTranslateEndToEnd's serve-layer number.
func TestTranslateAllocCeiling(t *testing.T) {
	sys, _ := allocSystem(t)
	ctx := context.Background()
	kws, err := keyword.ParseSpec("papers:select;Databases:where")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Translate(ctx, kws, nil); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(30, func() {
		if _, err := sys.Translate(ctx, kws, nil); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Translate: %.1f allocs/op (ceiling %d)", avg, maxAllocsTranslate)
	if avg > maxAllocsTranslate {
		t.Fatalf("Translate allocates %.1f/op, ceiling is %d — the end-to-end allocation war regressed", avg, maxAllocsTranslate)
	}
}
