package keyword

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// simPhrases returns n distinct phrases shaped like keywords and labels.
func simPhrases(n int) []string {
	words := []string{"papers", "journal", "author", "citations", "domain", "venue", "title", "year", "business", "movie"}
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s %s %d", words[i%len(words)], words[(i/len(words))%len(words)], i)
	}
	return out
}

// cachedEntries counts the entries of both generations of every shard.
func (c *simCache) cachedEntries() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.cur) + len(s.prev)
		s.mu.Unlock()
	}
	return n
}

// smallCacheMapper is a mapper whose similarity cache holds the minimum
// 64 entries per shard, so a few thousand pairs rotate every shard.
func smallCacheMapper(t *testing.T) *Mapper {
	m := newMapper(t, false, Options{})
	m.cache = newSimCache(0)
	if m.cache.perShard != 64 {
		t.Fatalf("perShard = %d, want the 64 floor", m.cache.perShard)
	}
	return m
}

// TestSimCacheMatchesModel: the memoized similarity is bit-identical to
// Model.Similarity in both argument orders, on first use, on a hit, and
// after shards have rotated many times over.
func TestSimCacheMatchesModel(t *testing.T) {
	m := smallCacheMapper(t)
	ps := simPhrases(120)
	for pass := 0; pass < 2; pass++ {
		for i, a := range ps {
			for _, b := range ps[i+1 : min(i+40, len(ps))] {
				for _, p := range [][2]string{{a, b}, {b, a}} {
					got, want := m.similarity(p[0], p[1]), m.model.Similarity(p[0], p[1])
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("pass %d: similarity(%q, %q) = %v, model = %v", pass, p[0], p[1], got, want)
					}
				}
			}
		}
	}
	for i := range m.cache.shards {
		if m.cache.shards[i].prev == nil {
			t.Fatalf("shard %d never rotated; grow the phrase set", i)
		}
	}
}

// TestSimCacheBounded: however many distinct pairs pass through, the cache
// holds at most two generations of perShard entries per shard.
func TestSimCacheBounded(t *testing.T) {
	c := newSimCache(0)
	limit := 2 * c.perShard * simCacheShards
	ps := simPhrases(200)
	for i, a := range ps {
		for _, b := range ps[i+1:] {
			c.put(makeSimKey(a, b), 0.5)
		}
	}
	if n := c.cachedEntries(); n > limit || n < limit/2 {
		t.Fatalf("%d entries cached after %d distinct puts, want within [%d, %d]", n, len(ps)*(len(ps)-1)/2, limit/2, limit)
	}
}

// TestSimCacheHitSurvivesRotation: an entry read from the previous
// generation is promoted, so it outlives the next rotation, while an entry
// left unread in the previous generation is evicted by it.
func TestSimCacheHitSurvivesRotation(t *testing.T) {
	c := newSimCache(0)
	// Keys of one shard, so its rotations are under the test's control.
	target := c.shard(makeSimKey("hot", "pair"))
	var keys []simKey
	for i := 0; len(keys) < 3*c.perShard+2; i++ {
		if k := makeSimKey(fmt.Sprint("k", i), "x"); c.shard(k) == target {
			keys = append(keys, k)
		}
	}
	hot, cold, fill := keys[0], keys[1], keys[2:]
	c.put(hot, 0.25)
	c.put(cold, 0.75)
	// Fill the current generation so the next put rotates hot and cold
	// into the previous one.
	for _, k := range fill[:c.perShard-2] {
		c.put(k, 0)
	}
	c.put(fill[c.perShard-2], 0) // rotation
	if _, ok := target.cur[hot]; ok {
		t.Fatal("no rotation happened")
	}
	if v, ok := c.get(hot); !ok || v != 0.25 {
		t.Fatalf("hot entry lost after one rotation: %v %v", v, ok)
	}
	// Fill until the shard rotates again: the promoted hot entry moves to
	// the previous generation, the unread cold one is dropped.
	for _, k := range fill[c.perShard-1:] {
		if len(target.cur) == 1 && target.prev[hot] == 0.25 {
			break
		}
		c.put(k, 0)
	}
	if v, ok := c.get(hot); !ok || v != 0.25 {
		t.Fatalf("hot entry lost after the second rotation: %v %v", v, ok)
	}
	if _, ok := c.get(cold); ok {
		t.Fatal("unread entry survived two rotations")
	}
}

// TestSimCacheConcurrent: concurrent callers sharing one small cache, with
// overlapping pairs in opposite argument orders, all read the model's
// exact values and leave the cache within its bound (run under -race).
func TestSimCacheConcurrent(t *testing.T) {
	m := smallCacheMapper(t)
	ps := simPhrases(80)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, a := range ps {
				for _, b := range ps[i+1:] {
					if w%2 == 1 {
						a, b = b, a
					}
					got, want := m.similarity(a, b), m.model.Similarity(a, b)
					if math.Float64bits(got) != math.Float64bits(want) {
						errs <- fmt.Sprintf("similarity(%q, %q) = %v, model = %v", a, b, got, want)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if n, limit := m.cache.cachedEntries(), 2*m.cache.perShard*simCacheShards; n > limit {
		t.Fatalf("%d entries cached, bound %d", n, limit)
	}
}
