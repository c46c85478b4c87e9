// Package serving implements the COSMO online deployment of §3.5 and
// Figure 5: the feature store that converts model responses into
// structured features for downstream applications, the asynchronous
// two-layer cache store (pre-loaded yearly frequent searches plus
// batch-processed daily requests), the batch processor, the daily model
// refresh loop, and request handling that meets the latency budget by
// serving cached features for the bulk of traffic.
package serving

import (
	"sync"
	"time"
)

// Feature staleness is measured against the deployment's Clock so tests
// can drive time deterministically with FakeClock.

// Feature is the structured, serving-ready form of a COSMO-LM response:
// product key-value pairs, semantic sub-category representation, and the
// strong-intent flag (§3.5.1 "Feature Store Integration").
type Feature struct {
	Query string
	// Intents are the generated knowledge strings, best first.
	Intents []string
	// Relations are the relation types aligned with Intents.
	Relations []string
	// SubCategory is the semantic sub-category representation (the top
	// intent's tail).
	SubCategory string
	// StrongIntent marks a high-confidence intent detection.
	StrongIntent bool
	// Version is the model refresh version that produced the feature.
	Version int
	// CreatedAt is when the feature was materialized; consumers use it
	// to reason about staleness (see the flash-sale experiment).
	CreatedAt time.Time
	// Stale marks a degraded response: the cache tiers missed and this
	// feature was served from the feature store, possibly computed by an
	// earlier model version. Set at serve time by HandleQuery, never
	// stored.
	Stale bool
}

// DefaultFeatureStoreCap bounds the deployment's feature store. A
// long-running server sees an unbounded stream of distinct queries;
// without a cap the store is a slow memory leak (the PR 1 bug class).
const DefaultFeatureStoreCap = 1 << 17

// FeatureStore stores structured features keyed by query; safe for
// concurrent use. Inserting a new query past the capacity evicts the
// oldest-inserted entry (FIFO), keeping resident memory O(cap)
// regardless of how many distinct queries the deployment serves.
// Nothing else removes an entry: a feature from an earlier model
// version stays until evicted, so HandleQuery's stale fallback can
// serve it.
type FeatureStore struct {
	mu       sync.RWMutex
	features map[string]Feature
	cap      int
	// order holds every stored query, oldest insert first; a re-put
	// keeps its key's place.
	order []string
}

// NewFeatureStoreWithCap returns an empty store bounded to capacity
// entries; a capacity below 1 is raised to 1.
func NewFeatureStoreWithCap(capacity int) *FeatureStore {
	return &FeatureStore{features: map[string]Feature{}, cap: max(capacity, 1)}
}

// Put inserts or replaces the feature for a query, evicting the
// oldest-inserted entry when a new query would exceed the capacity.
func (s *FeatureStore) Put(f Feature) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.features[f.Query]; !exists {
		if len(s.order) == s.cap {
			delete(s.features, s.order[0])
			s.order[0] = "" // release the evicted key
			s.order = s.order[1:]
		}
		s.order = append(s.order, f.Query)
	}
	s.features[f.Query] = f
}

// Get fetches the feature for a query.
func (s *FeatureStore) Get(query string) (Feature, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	f, ok := s.features[query]
	return f, ok
}

// Len returns the number of stored features.
func (s *FeatureStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.features)
}

// Clock abstracts time for deterministic tests.
type Clock interface {
	Now() time.Time
}

// RealClock uses the wall clock.
type RealClock struct{}

// Now returns the current wall time.
func (RealClock) Now() time.Time { return time.Now() }

// FakeClock is a manually advanced clock for tests.
type FakeClock struct {
	mu sync.Mutex
	t  time.Time
}

// NewFakeClock starts at the given time.
func NewFakeClock(t time.Time) *FakeClock { return &FakeClock{t: t} }

// Now returns the fake current time.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// Advance moves the clock forward.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}
