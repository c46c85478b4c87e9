// Package serving implements the COSMO online deployment of §3.5 and
// Figure 5: the feature store that converts model responses into
// structured features for downstream applications, the asynchronous
// two-layer cache store (pre-loaded yearly frequent searches plus
// batch-processed daily requests), the batch processor, the daily model
// refresh loop, and request handling that meets the latency budget by
// serving cached features for the bulk of traffic. One cache shard owns
// a query's node state — its cache entries, its queued miss, its
// feature-store entry and its interaction count — so a request hashes
// the query once and takes that shard's mutex only.
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

// DefaultFeatureStoreCap bounds the deployment's feature store and,
// separately, its interaction counter. Both are split across the cache
// shards like the daily and queue capacities, so the bound is the sum
// of per-shard bounds. A long-running server sees an unbounded stream
// of distinct queries; without a cap either is a slow memory leak.
const DefaultFeatureStoreCap = 1 << 17

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
