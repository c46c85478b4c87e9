package serving

import (
	"container/list"
	"sync"

	"cosmo/internal/kg"
)

// cacheShard is one lock stripe of the AsyncCache and the one owner of
// its queries' node state: a slice of the yearly layer, a slice of the
// daily LRU, a bounded ring buffer of queued misses, a slice of the
// feature store and a slice of the interaction counter. Queries are
// routed to shards by hash, so each shard only ever sees its own key
// space, and a request takes one hash and this one mutex.
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

	// store is the shard's slice of the feature store: the last feature
	// batch-processed or rebuilt by a refresh, per query. Inserting a
	// new query past featureCap evicts the oldest insert (storeOrder,
	// where a re-put keeps its key's place). Nothing else removes an
	// entry: a feature from an earlier model version stays until
	// evicted, so the stale fallback can serve it.
	store      map[string]Feature
	storeOrder []string
	// counts is the shard's slice of the interaction feedback loop
	// (query -> count), feeding the next refresh's frequent-search
	// selection. Once it holds featureCap queries a query not yet
	// counted is not admitted, while the counted ones keep counting.
	counts     map[string]int
	featureCap int
}

func newCacheShard(dailyCap, queueCap, featureCap int) *cacheShard {
	queueCap = max(queueCap, 1)
	return &cacheShard{
		yearly:     map[string]Feature{},
		daily:      map[string]*list.Element{},
		lru:        list.New(),
		cap:        max(dailyCap, 1),
		queue:      make([]string, queueCap),
		queued:     map[string]bool{},
		queueCap:   queueCap,
		store:      map[string]Feature{},
		counts:     map[string]int{},
		featureCap: max(featureCap, 1),
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
// the ring is full the retry (not queued fresh work) is sacrificed and
// counted, its de-dup claim is released so a future miss can re-enqueue
// the query, and false is returned.
func (s *cacheShard) requeue(query string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.qLen == s.queueCap {
		delete(s.queued, query)
		s.stats.RequeueDropped++
		return false
	}
	s.queue[(s.qHead+s.qLen)%s.queueCap] = query
	s.qLen++
	s.queued[query] = true
	s.stats.BatchRequeued++
	return true
}

// lookupLocked serves q from the yearly layer, then the daily LRU, and
// counts the hit; key is then the hit's Feature.Query, the map's own
// key. On a miss it counts the miss, converts q once into the owned
// string key and queues that. The maps are indexed with m[string(q)],
// which Go does not copy, so a byte query that hits copies nothing.
// Caller holds s.mu.
func lookupLocked[K kg.Key](s *cacheShard, q K) (f Feature, key string, ok bool) {
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

// serve is the request path's one critical section: the cache lookup,
// on a miss the stale fallback to the store (flagged Stale), and the
// interaction count, keyed by the string lookupLocked returns.
func serve[K kg.Key](s *cacheShard, q K) (Feature, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, key, ok := lookupLocked(s, q)
	if !ok {
		if f, ok = s.store[key]; ok {
			f.Stale = true
			s.stats.StaleServed++
		}
	}
	s.countLocked(key)
	return f, ok
}

// countLocked adds one interaction for query, admitting a new query
// only below featureCap. Caller holds s.mu.
func (s *cacheShard) countLocked(query string) {
	if _, counted := s.counts[query]; counted || len(s.counts) < s.featureCap {
		s.counts[query]++
	}
}

// storeLocked records f in the shard's feature store, evicting the
// oldest insert when a new query would exceed featureCap. Caller holds
// s.mu.
func (s *cacheShard) storeLocked(f Feature) {
	if _, exists := s.store[f.Query]; !exists {
		if len(s.storeOrder) == s.featureCap {
			delete(s.store, s.storeOrder[0])
			s.storeOrder[0] = "" // release the evicted key
			s.storeOrder = s.storeOrder[1:]
		}
		s.storeOrder = append(s.storeOrder, f.Query)
	}
	s.store[f.Query] = f
}

// installDaily records a batch-processed feature in the store and the
// daily LRU, evicting the least recently used entry when full.
func (s *cacheShard) installDaily(f Feature) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.queued, f.Query)
	s.storeLocked(f)
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

// preloadYearly installs f in the yearly layer and, for a feature a
// refresh rebuilt, in the store too.
func (s *cacheShard) preloadYearly(f Feature, refreshed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	//cosmo:lint-ignore unbounded-append yearly layer is bounded by the refresh preload set and rebuilt wholesale by resetYearly
	s.yearly[f.Query] = f
	if refreshed {
		s.storeLocked(f)
	}
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
	st.StoreSize = len(s.store)
	return st
}

// queryCount is a (query, count) pair from the interaction counter.
type queryCount struct {
	q string
	c int
}
