package serving

import (
	"sort"
	"sync/atomic"

	"cosmo/internal/fnv1a"
	"cosmo/internal/kg"
)

// CacheStats reports cache behavior.
type CacheStats struct {
	Hits        int
	Misses      int
	YearlyHits  int
	DailyHits   int
	Evictions   int
	DailySize   int
	YearlySize  int
	BatchQueued int
	// BatchEnqueued counts misses actually pushed onto the batch queue
	// (a de-duplicated miss on an already-queued query does not count).
	// Together with BatchRequeued, BatchDropped and the deployment's
	// BatchTotals it forms the conservation ledger the chaos tests
	// assert: every push is eventually processed, re-queued or dropped.
	BatchEnqueued int
	// BatchRequeued counts failed queries pushed back by the batch
	// processor for a later attempt.
	BatchRequeued int
	// BatchDropped counts misses evicted from the bounded batch queue
	// before they could be processed (drop-oldest policy).
	BatchDropped int
	// RequeueDropped counts failed queries the batch processor could
	// not push back because their shard's queue was full.
	RequeueDropped int
	// StaleServed counts misses answered from the feature store,
	// flagged Stale.
	StaleServed int
	// StoreSize is the number of features in the feature store.
	StoreSize int
}

// HitRate returns hits / (hits + misses).
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

func (s *CacheStats) add(o CacheStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.YearlyHits += o.YearlyHits
	s.DailyHits += o.DailyHits
	s.Evictions += o.Evictions
	s.DailySize += o.DailySize
	s.YearlySize += o.YearlySize
	s.BatchQueued += o.BatchQueued
	s.BatchEnqueued += o.BatchEnqueued
	s.BatchRequeued += o.BatchRequeued
	s.BatchDropped += o.BatchDropped
	s.RequeueDropped += o.RequeueDropped
	s.StaleServed += o.StaleServed
	s.StoreSize += o.StoreSize
}

// Defaults for the sharded cache. Shard count is fixed (not NumCPU) so
// behavior is deterministic across machines; 8 stripes is enough to take
// mutex contention off the profile at the request rates the loadgen
// drives while keeping per-shard LRUs large enough to be useful.
const (
	DefaultCacheShards = 8
	DefaultQueueCap    = 4096
)

// CacheConfig configures the sharded async cache.
type CacheConfig struct {
	// DailyCap is the total daily-layer capacity, split across shards.
	DailyCap int
	// Shards is the number of lock stripes (default DefaultCacheShards,
	// clamped so every shard holds at least one daily entry).
	Shards int
	// QueueCap is the total bounded miss-queue capacity, split across
	// shards (default DefaultQueueCap).
	QueueCap int
}

// AsyncCache is the two-layer asynchronous cache store of §3.5.1:
//
//   - Layer 1 holds pre-loaded yearly frequent searches (immutable
//     between refreshes).
//   - Layer 2 is an LRU over batch-processed daily requests, adapting to
//     daily traffic patterns.
//
// Misses are queued for asynchronous batch processing rather than
// computed inline, which is what keeps serving latency flat.
//
// The cache is lock-striped: queries hash to one of N independent
// shards, each with its own mutex, daily LRU slice, bounded miss queue,
// feature-store slice and interaction-counter slice, so concurrent
// lookups on different keys do not serialize. LRU eviction, queue,
// store and counter bounds are therefore per-shard properties; the
// daily, queue and DefaultFeatureStoreCap totals are split across
// shards.
type AsyncCache struct {
	shards []*cacheShard
	mask   uint64 // len(shards)-1; shard count is a power of two
	// drainStart rotates DrainQueue's starting shard so that under
	// sustained load every shard's queue gets drained fairly instead of
	// low-index shards starving the rest.
	drainStart atomic.Uint64
}

type dailyEntry struct {
	key string
	f   Feature
}

// NewAsyncCacheWithConfig builds a cache with explicit shard count and
// queue capacity. Shard count is rounded down to a power of two and
// clamped to [1, DailyCap] so the summed per-shard capacities never
// exceed the configured totals.
func NewAsyncCacheWithConfig(cfg CacheConfig) *AsyncCache {
	if cfg.DailyCap < 1 {
		cfg.DailyCap = 1
	}
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultCacheShards
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = DefaultQueueCap
	}
	if cfg.Shards > cfg.DailyCap {
		cfg.Shards = cfg.DailyCap
	}
	if cfg.Shards > cfg.QueueCap {
		cfg.Shards = cfg.QueueCap
	}
	n := 1
	for n*2 <= cfg.Shards {
		n *= 2
	}
	c := &AsyncCache{shards: make([]*cacheShard, n), mask: uint64(n - 1)}
	for i := range c.shards {
		// Split each capacity, spreading the remainder over the low
		// shards so the totals match the configured caps exactly.
		share := func(total int) int {
			if i < total%n {
				return total/n + 1
			}
			return total / n
		}
		c.shards[i] = newCacheShard(share(cfg.DailyCap), share(cfg.QueueCap), share(DefaultFeatureStoreCap))
	}
	return c
}

// shardOf routes a query to its lock stripe by 64-bit FNV-1a, which
// allocates nothing on the hot path: same bytes, same shard, whether
// they come as a string or a byte slice.
func shardOf[K kg.Key](c *AsyncCache, query K) *cacheShard {
	return c.shards[fnv1a.String64(fnv1a.Offset64, query)&c.mask]
}

// NumShards returns the number of lock stripes.
func (c *AsyncCache) NumShards() int { return len(c.shards) }

// PreloadYearly installs the yearly frequent-search layer.
func (c *AsyncCache) PreloadYearly(features []Feature) {
	for _, f := range features {
		shardOf(c, f.Query).preloadYearly(f, false)
	}
}

// Lookup serves a query: yearly layer first, then daily LRU. On a miss
// the query is queued for batch processing and (nil, false) returns
// immediately — the caller degrades gracefully rather than blocking on
// model inference. When the bounded miss queue is full, the oldest
// queued query is dropped to admit this one.
func (c *AsyncCache) Lookup(query string) (Feature, bool) {
	s := shardOf(c, query)
	s.mu.Lock()
	defer s.mu.Unlock()
	f, _, ok := lookupLocked(s, query)
	return f, ok
}

// InstallDaily records a batch-processed feature in its shard's feature
// store and daily layer, evicting that shard's least recently used
// entry when full.
func (c *AsyncCache) InstallDaily(f Feature) {
	shardOf(c, f.Query).installDaily(f)
}

// DrainQueue removes and returns up to n queued queries for the batch
// processor, taking from each shard in turn. The starting shard rotates
// across calls: draining always from shard 0 first would let a hot
// low-index shard starve high-index shards' queued misses indefinitely
// whenever n is smaller than the total backlog.
func (c *AsyncCache) DrainQueue(n int) []string {
	var out []string
	start := int(c.drainStart.Add(1)-1) % len(c.shards)
	for i := 0; i < len(c.shards); i++ {
		if len(out) >= n {
			break
		}
		s := c.shards[(start+i)%len(c.shards)]
		out = append(out, s.drain(n-len(out))...)
	}
	return out
}

// Requeue pushes a query whose batch processing failed back onto its
// shard's bounded queue for a later attempt. Unlike fresh misses, a
// requeue never evicts queued work: when the shard's queue is full the
// requeued query is dropped (counted in CacheStats.RequeueDropped) and
// false is returned — fresh traffic keeps priority over retries.
func (c *AsyncCache) Requeue(query string) bool {
	return shardOf(c, query).requeue(query)
}

// ResetDaily clears the daily layer (the daily refresh boundary).
// Pending queue entries are kept: they are misses that still need batch
// processing, and their queued-map entries are cleared either when the
// batch installs them or when the bounded queue drops them.
func (c *AsyncCache) ResetDaily() {
	for _, s := range c.shards {
		s.resetDaily()
	}
}

// ReplaceYearly swaps in a new yearly layer (the yearly refresh) and
// records its features in the feature store.
func (c *AsyncCache) ReplaceYearly(features []Feature) {
	for _, s := range c.shards {
		s.resetYearly()
	}
	for _, f := range features {
		shardOf(c, f.Query).preloadYearly(f, true)
	}
}

// Stats snapshots cache statistics aggregated across all shards.
func (c *AsyncCache) Stats() CacheStats {
	var total CacheStats
	for _, s := range c.shards {
		total.add(s.snapshot())
	}
	return total
}

// interactions returns every shard's (query, count) pairs ordered by
// count descending, ties broken by query for determinism.
func (c *AsyncCache) interactions() []queryCount {
	var out []queryCount
	for _, s := range c.shards {
		s.mu.Lock()
		for q, n := range s.counts {
			out = append(out, queryCount{q, n})
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].c != out[j].c {
			return out[i].c > out[j].c
		}
		return out[i].q < out[j].q
	})
	return out
}
