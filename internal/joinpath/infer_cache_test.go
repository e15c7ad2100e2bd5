package joinpath

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"templar/internal/datasets"
	"templar/internal/schema"
)

// TestInferCacheParity pins the memoized path against a cache-cold
// Generator: every repeat call (any bag order, any topK) must return
// exactly what a fresh Generator computes. It runs on the paper's Figure 1
// schema and on the bundled MAS schema.
func TestInferCacheParity(t *testing.T) {
	bags := [][]string{
		{"publication"},
		{"journal", "publication"},
		{"publication", "journal"}, // order must not matter
		{"domain", "journal"},
		{"author", "author", "publication"}, // self-join fork
		// One multiset in two orders: the second call is served from the
		// cache entry the first one filled, so the search must not depend
		// on element order (on the bundled MAS schema, the rank-2 path
		// did).
		{"author", "organization", "keyword"},
		{"organization", "keyword", "author"},
	}
	for _, g := range []*schema.Graph{masGraph(t), datasets.MAS().DB.Schema()} {
		warm := NewGenerator(g, nil)
		for round := 0; round < 3; round++ {
			for _, bag := range bags {
				for topK := 1; topK <= 3; topK++ {
					want, wantErr := NewGenerator(g, nil).Infer(bag, topK)
					got, gotErr := warm.Infer(bag, topK)
					if (wantErr == nil) != (gotErr == nil) {
						t.Fatalf("bag %v topK %d round %d: err %v vs fresh %v", bag, topK, round, gotErr, wantErr)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("bag %v topK %d round %d:\n got  %v\n want %v", bag, topK, round, got, want)
					}
				}
			}
		}
	}
}

// TestInferCacheInfeasibleBag verifies deterministic failures are memoized
// and keep returning the identical error.
func TestInferCacheInfeasibleBag(t *testing.T) {
	g := schema.NewGraph()
	_ = g.AddRelation(schema.Relation{Name: "island", Attributes: []schema.Attribute{{Name: "x", Type: schema.Number, PrimaryKey: true}}})
	_ = g.AddRelation(schema.Relation{Name: "mainland", Attributes: []schema.Attribute{{Name: "y", Type: schema.Number, PrimaryKey: true}}})
	gen := NewGenerator(g, nil)
	_, err1 := gen.Infer([]string{"island", "mainland"}, 1)
	if err1 == nil {
		t.Fatal("expected infeasible-bag error")
	}
	_, err2 := gen.Infer([]string{"island", "mainland"}, 1)
	if err2 == nil || err1.Error() != err2.Error() {
		t.Fatalf("cached failure diverged: %v vs %v", err1, err2)
	}
}

// TestInferCacheCancellationNotCached proves a canceled search is not
// memoized: the same bag must succeed on the next (uncanceled) call.
func TestInferCacheCancellationNotCached(t *testing.T) {
	gen := NewGenerator(masGraph(t), nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := gen.InferCtx(ctx, []string{"domain", "journal"}, 2); err == nil {
		t.Fatal("expected cancellation error")
	}
	paths, err := gen.Infer([]string{"domain", "journal"}, 2)
	if err != nil || len(paths) == 0 {
		t.Fatalf("post-cancellation call poisoned: %v (%d paths)", err, len(paths))
	}
}

// TestInferResultIsAppendSafe verifies a caller appending to its result
// slice cannot clobber the cached tail of the full path list.
func TestInferResultIsAppendSafe(t *testing.T) {
	gen := NewGenerator(masGraph(t), nil)
	full, err := gen.Infer([]string{"domain", "journal"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 2 {
		t.Skipf("need ≥2 alternative paths, got %d", len(full))
	}
	one, err := gen.Infer([]string{"domain", "journal"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	_ = append(one, Path{Relations: []string{"garbage"}})
	again, err := gen.Infer([]string{"domain", "journal"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, full) {
		t.Fatal("appending to a trimmed result corrupted the cache")
	}
}

// TestInferCacheConcurrent hammers one Generator from many goroutines (run
// under -race in tier-1) across hit, miss and self-join-fork paths.
func TestInferCacheConcurrent(t *testing.T) {
	gen := NewGenerator(masGraph(t), nil)
	bags := [][]string{
		{"journal", "publication"},
		{"domain", "journal"},
		{"author", "author", "publication"},
		{"publication"},
	}
	want := make([][]Path, len(bags))
	for i, bag := range bags {
		w, err := NewGenerator(masGraph(t), nil).Infer(bag, 3)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = w
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 30; it++ {
				i := (g + it) % len(bags)
				got, err := gen.Infer(bags[i], 3)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d iter %d: bag %v diverged under concurrency", g, it, bags[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestInferShardEviction fills a shard past capacity and checks the cache
// still answers correctly afterwards (epoch eviction drops entries, never
// correctness).
func TestInferShardEviction(t *testing.T) {
	gen := NewGenerator(masGraph(t), nil)
	// Synthesize entries straight into the cache to cross the cap without
	// needing thousands of real relations.
	for i := 0; i < inferCacheShards*inferShardCapacity+64; i++ {
		gen.cache.put(string(rune('a'+i%26))+string(rune('0'+i%10))+itoa(i), inferEntry{})
	}
	want, err := NewGenerator(masGraph(t), nil).Infer([]string{"journal", "publication"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := gen.Infer([]string{"journal", "publication"}, 2)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("post-eviction inference diverged: %v, %v", got, err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
