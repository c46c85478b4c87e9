package serving

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
)

// TestCacheInvariantsUnderRandomOps drives the two-layer cache with a
// random operation sequence and checks its structural invariants after
// every step.
func TestCacheInvariantsUnderRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	const cap = 8
	c := NewAsyncCacheWithConfig(CacheConfig{DailyCap: cap})
	c.PreloadYearly([]Feature{{Query: "y1"}, {Query: "y2"}})
	queries := make([]string, 40)
	for i := range queries {
		queries[i] = fmt.Sprintf("q%d", i)
	}
	for step := 0; step < 5000; step++ {
		q := queries[rng.Intn(len(queries))]
		switch rng.Intn(3) {
		case 0:
			c.Lookup(q)
		case 1:
			c.InstallDaily(Feature{Query: q})
		default:
			c.DrainQueue(rng.Intn(4))
		}
		s := c.Stats()
		if s.DailySize > cap {
			t.Fatalf("step %d: daily size %d exceeds cap %d", step, s.DailySize, cap)
		}
		if s.Hits < 0 || s.Misses < 0 || s.Evictions < 0 {
			t.Fatalf("step %d: negative counters %+v", step, s)
		}
		if s.YearlySize != 2 {
			t.Fatalf("step %d: yearly layer mutated to %d", step, s.YearlySize)
		}
	}
	// Yearly entries always hit.
	if _, ok := c.Lookup("y1"); !ok {
		t.Error("yearly entry lost")
	}
}

// TestCacheHitAfterInstallProperty: any installed query hits until at
// least cap further distinct installs occur.
func TestCacheHitAfterInstallProperty(t *testing.T) {
	c := NewAsyncCacheWithConfig(CacheConfig{DailyCap: 16})
	for i := 0; i < 200; i++ {
		q := fmt.Sprintf("install-%d", i)
		c.InstallDaily(Feature{Query: q})
		if _, ok := c.Lookup(q); !ok {
			t.Fatalf("query %q missing immediately after install", q)
		}
	}
}

// TestDeploymentBatchDrainsEverything: repeated RunBatch eventually
// clears any backlog.
func TestDeploymentBatchDrainsEverything(t *testing.T) {
	d := NewDeploymentContext(DeployConfig{DailyCacheCap: 512}, echoResponder("v1"))
	for i := 0; i < 300; i++ {
		d.HandleQuery(fmt.Sprintf("cold-%d", i))
	}
	total := 0
	for i := 0; i < 100; i++ {
		n := d.RunBatchContext(context.Background(), 16).Succeeded
		total += n
		if n == 0 {
			break
		}
	}
	if total != 300 {
		t.Errorf("batch drained %d of 300", total)
	}
	if got := d.Cache.Stats().BatchQueued; got != 0 {
		t.Errorf("queue still has %d entries", got)
	}
}
