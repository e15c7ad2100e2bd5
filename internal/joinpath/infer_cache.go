package joinpath

import "sync"

// inferCache memoizes InferCtx results per Generator. A Generator's graph
// and edge weights are immutable after construction, so a relation bag
// always infers the same path list — both the success case and the
// "relations not connected" failure are deterministic and cacheable.
// Cancellation errors are never cached (they say nothing about the bag).
//
// The cache is sharded to keep contention off the serving hot path and
// bounded with whole-shard epoch eviction: once a shard reaches its entry
// cap the shard map is dropped and repopulated on demand. That is cheaper
// and simpler than LRU bookkeeping per probe, and the steady-state working
// set (distinct relation bags of a workload) is tiny compared to the cap.
type inferCache struct {
	shards [inferCacheShards]inferShard
}

const (
	inferCacheShards   = 8
	inferShardCapacity = 256
)

type inferShard struct {
	mu sync.Mutex
	m  map[string]inferEntry
}

// inferEntry is one memoized outcome: the full (untrimmed) ranked path
// list, or the deterministic infeasibility error.
type inferEntry struct {
	paths []Path
	err   error
}

func (c *inferCache) shard(key string) *inferShard {
	// FNV-1a over the key, folded into the shard index.
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &c.shards[h%inferCacheShards]
}

func (c *inferCache) get(key string) (inferEntry, bool) {
	s := c.shard(key)
	s.mu.Lock()
	e, ok := s.m[key]
	s.mu.Unlock()
	return e, ok
}

func (c *inferCache) put(key string, e inferEntry) {
	s := c.shard(key)
	s.mu.Lock()
	if s.m == nil || len(s.m) >= inferShardCapacity {
		s.m = make(map[string]inferEntry, 64)
	}
	s.m[key] = e
	s.mu.Unlock()
}
