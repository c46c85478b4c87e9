package serving

import (
	"container/list"
	"sort"
	"sync"

	"cosmo/internal/fnv1a"
	"cosmo/internal/kg"
)

// cacheShard is one lock stripe of the AsyncCache: a slice of the yearly
// layer, a slice of the daily LRU, and a bounded ring buffer of queued
// misses. Queries are routed to shards by hash, so each shard only ever
// sees its own key space and the per-shard mutex replaces the old global
// one.
type cacheShard struct {
	mu     sync.Mutex
	yearly map[string]Feature
	daily  map[string]*list.Element
	lru    *list.List
	cap    int
	stats  CacheStats

	// Bounded miss queue: a fixed-capacity ring with drop-oldest policy.
	// When the ring is full the oldest queued query is dropped (and
	// removed from the queued de-dup map so a later miss can re-enqueue
	// it) in favor of the incoming one — fresh traffic wins.
	queue    []string
	qHead    int
	qLen     int
	queued   map[string]bool
	queueCap int
}

func newCacheShard(dailyCap, queueCap int) *cacheShard {
	if dailyCap < 1 {
		dailyCap = 1
	}
	if queueCap < 1 {
		queueCap = 1
	}
	return &cacheShard{
		yearly:   map[string]Feature{},
		daily:    map[string]*list.Element{},
		lru:      list.New(),
		cap:      dailyCap,
		queue:    make([]string, queueCap),
		queued:   map[string]bool{},
		queueCap: queueCap,
	}
}

// enqueueLocked adds a query to the bounded miss queue, dropping the
// oldest entry when full. Caller holds s.mu.
func (s *cacheShard) enqueueLocked(query string) {
	if s.queued[query] {
		return
	}
	if s.qLen == s.queueCap {
		oldest := s.queue[s.qHead]
		delete(s.queued, oldest)
		s.qHead = (s.qHead + 1) % s.queueCap
		s.qLen--
		s.stats.BatchDropped++
	}
	s.queue[(s.qHead+s.qLen)%s.queueCap] = query
	s.qLen++
	s.queued[query] = true
	s.stats.BatchEnqueued++
}

// requeue pushes a drained-but-failed query back onto the queue. The
// caller must have obtained the query from drain: its queued-map entry
// is still set (the in-flight de-dup claim) but it is no longer in the
// ring, so it is pushed unconditionally. Overflow is drop-newest: when
// the ring is full the retry (not queued fresh work) is sacrificed, its
// de-dup claim is released so a future miss can re-enqueue the query,
// and false is returned so the caller can account for the drop.
func (s *cacheShard) requeue(query string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.qLen == s.queueCap {
		delete(s.queued, query)
		return false
	}
	s.queue[(s.qHead+s.qLen)%s.queueCap] = query
	s.qLen++
	s.queued[query] = true
	s.stats.BatchRequeued++
	return true
}

// lookup serves q from the yearly layer, then the daily LRU, and counts
// the hit; key is then the hit's Feature.Query, the map's own key. On a
// miss it counts the miss, converts q once into the owned string key
// and queues that. The maps are indexed with m[string(q)], which Go
// does not copy, so a byte query that hits copies nothing.
func lookup[K kg.Key](s *cacheShard, q K) (f Feature, key string, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.yearly[string(q)]; ok {
		s.stats.Hits++
		s.stats.YearlyHits++
		return f, f.Query, true
	}
	if el, ok := s.daily[string(q)]; ok {
		s.lru.MoveToFront(el)
		s.stats.Hits++
		s.stats.DailyHits++
		f := el.Value.(dailyEntry).f
		return f, f.Query, true
	}
	s.stats.Misses++
	key = string(q)
	s.enqueueLocked(key)
	return Feature{}, key, false
}

func (s *cacheShard) installDaily(f Feature) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.queued, f.Query)
	if el, ok := s.daily[f.Query]; ok {
		el.Value = dailyEntry{f.Query, f}
		s.lru.MoveToFront(el)
		return
	}
	if s.lru.Len() >= s.cap {
		back := s.lru.Back()
		if back != nil {
			s.lru.Remove(back)
			delete(s.daily, back.Value.(dailyEntry).key)
			s.stats.Evictions++
		}
	}
	s.daily[f.Query] = s.lru.PushFront(dailyEntry{f.Query, f})
}

// drain removes and returns up to n queued queries.
func (s *cacheShard) drain(n int) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n > s.qLen {
		n = s.qLen
	}
	if n <= 0 {
		return nil
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = s.queue[(s.qHead+i)%s.queueCap]
	}
	s.qHead = (s.qHead + n) % s.queueCap
	s.qLen -= n
	return out
}

func (s *cacheShard) preloadYearly(f Feature) {
	s.mu.Lock()
	//cosmo:lint-ignore unbounded-append yearly layer is bounded by the refresh preload set and rebuilt wholesale by resetYearly
	s.yearly[f.Query] = f
	s.mu.Unlock()
}

func (s *cacheShard) resetDaily() {
	s.mu.Lock()
	s.daily = map[string]*list.Element{}
	s.lru = list.New()
	s.mu.Unlock()
}

func (s *cacheShard) resetYearly() {
	s.mu.Lock()
	s.yearly = map[string]Feature{}
	s.mu.Unlock()
}

func (s *cacheShard) snapshot() CacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.DailySize = s.lru.Len()
	st.YearlySize = len(s.yearly)
	st.BatchQueued = s.qLen
	return st
}

// stripedCounter is a lock-striped string->count map for the interaction
// feedback loop: increments hash to one of a fixed set of stripes so
// concurrent HandleQuery calls touching different queries do not
// serialize on a single mutex.
type stripedCounter struct {
	stripes []counterStripe
}

type counterStripe struct {
	mu     sync.Mutex
	counts map[string]int
}

func newStripedCounter(n int) *stripedCounter {
	if n < 1 {
		n = 1
	}
	c := &stripedCounter{stripes: make([]counterStripe, n)}
	for i := range c.stripes {
		c.stripes[i].counts = map[string]int{}
	}
	return c
}

func (c *stripedCounter) inc(q string) {
	s := &c.stripes[fnv1a.String64(fnv1a.Offset64, q)%uint64(len(c.stripes))]
	s.mu.Lock()
	s.counts[q]++
	s.mu.Unlock()
}

// queryCount is a (query, count) pair from the interaction counter.
type queryCount struct {
	q string
	c int
}

// sorted returns every (query, count) pair ordered by count descending,
// ties broken by query for determinism.
func (c *stripedCounter) sorted() []queryCount {
	var out []queryCount
	for i := range c.stripes {
		s := &c.stripes[i]
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
