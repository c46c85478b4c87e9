package faults

import (
	"context"
	"fmt"
	"os"
	"sort"
	"testing"
	"time"

	"cosmo/internal/cluster"
	"cosmo/internal/serving"
)

func chaosKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("chaos-key-%d", i)
	}
	return keys
}

// dumpClusterMetrics appends the router's /metrics body to the file
// named by COSMO_CLUSTER_METRICS — the CI chaos smoke uploads it as an
// artifact.
func dumpClusterMetrics(t *testing.T, h *ClusterHarness) {
	t.Helper()
	path := os.Getenv("COSMO_CLUSTER_METRICS")
	if path == "" {
		return
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Logf("metrics dump: %v", err)
		return
	}
	defer f.Close() //cosmo:lint-ignore dropped-error best-effort artifact dump
	fmt.Fprintf(f, "# %s\n", t.Name())
	h.Router.WriteMetrics(f)
}

func durationQuantile(lat []time.Duration, q float64) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	s := make([]time.Duration, len(lat))
	copy(s, lat)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	i := int(q * float64(len(s)-1))
	return s[i]
}

// TestClusterChaosNodeDeath kills one of three nodes mid-load at
// replication 2 and requires zero client-visible failures plus
// deterministic failover: every key the dead node owned lands on the
// key's next replica from the pre-death preference order, and repeated
// lookups keep landing there.
func TestClusterChaosNodeDeath(t *testing.T) {
	keys := chaosKeys(64)
	h, err := NewClusterHarness(HarnessConfig{
		Nodes: 3,
		Keys:  keys,
		Router: cluster.Config{
			Replication: 2,
			Breaker:     serving.BreakerConfig{Threshold: 3, Cooldown: time.Hour}, // dead stays dead for this test
		},
	})
	if err != nil {
		t.Fatalf("harness: %v", err)
	}
	ctx := context.Background()
	h.Router.CheckHealth(ctx)

	// The victim is keys[0]'s primary, so at least its keys must fail
	// over. Record every key's pre-death replica set first.
	before := make(map[string][]string, len(keys))
	for _, k := range keys {
		rs := h.Router.ReplicaSet(k)
		if len(rs) != 2 {
			t.Fatalf("replica set for %q = %v, want 2 nodes", k, rs)
		}
		before[k] = rs
	}
	victimName := before[keys[0]][0]
	victim := -1
	for i := range h.Faults {
		if fmt.Sprintf("node%d", i) == victimName {
			victim = i
		}
	}
	if victim < 0 {
		t.Fatalf("victim %q not found", victimName)
	}

	// The kill is passive-path only: no health probe runs during the
	// load, so detection happens through refused attempts feeding the
	// victim's breaker — failover first, breaker exclusion after.
	lat, failures := h.RunLoad(ctx, 8, 50, keys, func() {
		h.Faults[victim].SetDown(true)
	})
	if !h.Faults[victim].Down() {
		t.Fatal("mid-run hook never fired; the kill did not happen")
	}
	h.Router.CheckHealth(ctx) // the next active probe notices the death
	if failures != 0 {
		t.Fatalf("%d client-visible failures with replication 2 and one node down, want 0", failures)
	}
	if len(lat) != 8*50 {
		t.Fatalf("latencies for %d requests, want %d", len(lat), 8*50)
	}

	// Deterministic failover: the dead node's keys each moved to their
	// next pre-death replica; other keys kept their primary. Same key,
	// same surviving replica — twice.
	for _, k := range keys {
		want := before[k][0]
		if want == victimName {
			want = before[k][1]
		}
		for round := 0; round < 2; round++ {
			rs := h.Router.ReplicaSet(k)
			if len(rs) == 0 || rs[0] != want {
				t.Fatalf("key %q round %d: replica set %v, want primary %s (deterministic failover)",
					k, round, rs, want)
			}
		}
		res, err := h.Lookup(ctx, k)
		if err != nil || res.Status != 200 {
			t.Fatalf("key %q after death: status %d err %v, want 200", k, res.Status, err)
		}
	}

	s := h.Router.Stats()
	if s.Errors != 0 {
		t.Fatalf("router error counter = %d, want 0", s.Errors)
	}
	if s.Failovers == 0 {
		t.Fatal("no failovers recorded although the victim owned keys")
	}
	var victimStats cluster.NodeStats
	for _, n := range s.Nodes {
		if n.Name == victimName {
			victimStats = n
		}
	}
	if victimStats.Health != cluster.HealthDown {
		t.Fatalf("victim health = %v, want down", victimStats.Health)
	}
	if victimStats.Exclusions == 0 {
		t.Fatalf("victim was never excluded from a replica set: %+v", victimStats)
	}
	dumpClusterMetrics(t, h)
}

// TestClusterChaosStragglerHedging makes one of three nodes a 10x
// straggler and requires the hedged read path to keep the client p99
// within 3x the no-fault baseline, with a non-zero hedge-win counter.
func TestClusterChaosStragglerHedging(t *testing.T) {
	// The base latency is deliberately large relative to scheduler noise:
	// the assertion is a ratio against the no-fault baseline, so margin
	// scales with the base. (At 40ms the hedged worst path is
	// ~delay+base ≈ 88ms against a 3x-baseline limit of ~125ms.)
	const base = 40 * time.Millisecond
	keys := chaosKeys(48)
	h, err := NewClusterHarness(HarnessConfig{
		Nodes: 3,
		Keys:  keys,
		Router: cluster.Config{
			Replication:     2,
			MinHedgeSamples: 16,
			HedgeMin:        time.Millisecond,
			HedgeMax:        250 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatalf("harness: %v", err)
	}
	ctx := context.Background()
	h.Router.CheckHealth(ctx)
	for _, fb := range h.Faults {
		fb.SetExtraLatency(base) // every node serves at ~20ms
	}

	// Phase A: no straggler. Warms every node's histogram past
	// MinHedgeSamples and measures the no-fault baseline.
	latA, failA := h.RunLoad(ctx, 8, 50, keys, nil)
	if failA != 0 {
		t.Fatalf("%d failures in the no-fault phase", failA)
	}
	baseline := durationQuantile(latA, 0.99)
	if baseline < base {
		t.Fatalf("baseline p99 %v below the injected floor %v; harness is broken", baseline, base)
	}

	// Phase B: node0 serves at 10x. Hedging (delay derived from the
	// healthy nodes' p99) must bound the tail.
	h.Faults[0].SetExtraLatency(10 * base)
	latB, failB := h.RunLoad(ctx, 8, 50, keys, nil)
	if failB != 0 {
		t.Fatalf("%d failures in the straggler phase", failB)
	}
	p99 := durationQuantile(latB, 0.99)
	if limit := 3 * baseline; p99 > limit {
		t.Fatalf("straggler-phase p99 %v exceeds 3x baseline (%v); hedging is not bounding the tail", p99, limit)
	}
	s := h.Router.Stats()
	if s.Hedges == 0 || s.HedgeWins == 0 {
		t.Fatalf("hedges=%d hedgeWins=%d, want both non-zero with a 10x straggler", s.Hedges, s.HedgeWins)
	}
	if s.Errors != 0 {
		t.Fatalf("router error counter = %d, want 0", s.Errors)
	}
	dumpClusterMetrics(t, h)
}
