package serving

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cosmo/internal/kg"
)

// failAfterResponder succeeds for the first n calls, then fails every
// call with err (or panics when panicAfter is set).
type failAfterResponder struct {
	n          int
	err        error
	panicAfter bool
	calls      int
}

func (f *failAfterResponder) RespondContext(ctx context.Context, q string) (Feature, error) {
	f.calls++
	if f.calls > f.n {
		if f.panicAfter {
			panic("responder corrupted")
		}
		return Feature{}, f.err
	}
	return Feature{Query: q, Intents: []string{"ok:" + q}}, nil
}

// seedTraffic drives count distinct hot queries through the deployment
// so the feedback loop ranks them.
func seedTraffic(d *Deployment, count int) {
	for i := 0; i < count; i++ {
		q := fmt.Sprintf("hot-%02d", i)
		// More interactions for lower i: deterministic frequency order.
		for j := 0; j <= count-i; j++ {
			d.HandleQuery(q)
		}
	}
}

func snapshotYearly(t *testing.T, d *Deployment) map[string]Feature {
	t.Helper()
	got := map[string]Feature{}
	for i := 0; i < 64; i++ {
		q := fmt.Sprintf("hot-%02d", i)
		if f, ok := d.Cache.Lookup(q); ok {
			got[q] = f
		}
	}
	return got
}

// TestDailyRefreshFailureAtomicity is the satellite regression test: a
// responder that errors partway through the yearly rebuild must leave
// the model version, installed responder, yearly layer, and KG snapshot
// exactly as they were, and surface the failure as an error + metric.
func TestDailyRefreshFailureAtomicity(t *testing.T) {
	d := NewDeploymentContext(DeployConfig{DailyCacheCap: 64}, echoResponder("v1"))
	world := kg.New()
	world.AddNode(kg.Node{ID: "p1", Label: "tent", Type: kg.NodeProduct})
	snap := world.Freeze()
	d.Install(&Generation{Snap: snap})
	seedTraffic(d, 8)
	// v2 is a pointer responder so installed-responder identity is
	// checkable after the failed refresh attempts below.
	v2 := &failAfterResponder{n: 1 << 30}
	if err := d.Refresh(context.Background(), v2, nil, 8); err != nil {
		t.Fatalf("healthy refresh: %v", err)
	}
	yearlyBefore := snapshotYearly(t, d)
	if len(yearlyBefore) != 8 {
		t.Fatalf("yearly layer = %d entries, want 8", len(yearlyBefore))
	}

	// Rebuild fails at the 4th yearly query. Nothing may change.
	boom := errors.New("inference backend 500")
	failing := &failAfterResponder{n: 3, err: boom}
	world2 := kg.New()
	world2.AddNode(kg.Node{ID: "p2", Label: "lantern", Type: kg.NodeProduct})
	err := d.Refresh(context.Background(), failing, &Generation{Snap: world2.Freeze()}, 8)
	if !errors.Is(err, boom) {
		t.Fatalf("refresh err = %v, want wrapped backend error", err)
	}
	if got := d.Version(); got != 2 {
		t.Errorf("version = %d, want 2 (unchanged)", got)
	}
	if d.Generation().Snap != snap {
		t.Error("KG snapshot was swapped by a failed refresh")
	}
	if d.cur.Load().responder != ContextResponder(v2) {
		t.Error("responder was swapped by a failed refresh")
	}
	yearlyAfter := snapshotYearly(t, d)
	if len(yearlyAfter) != len(yearlyBefore) {
		t.Fatalf("yearly layer = %d entries after failure, want %d", len(yearlyAfter), len(yearlyBefore))
	}
	for q, f := range yearlyBefore {
		af, ok := yearlyAfter[q]
		if !ok || af.Version != f.Version || len(af.Intents) != len(f.Intents) {
			t.Errorf("yearly entry %q changed across failed refresh: %+v -> %+v", q, f, af)
		}
	}
	if got := d.BatchTotals().RefreshFails; got != 1 {
		t.Errorf("refresh failures = %d, want 1", got)
	}

	// A panicking rebuild is equally atomic.
	err = d.Refresh(context.Background(), &failAfterResponder{n: 2, panicAfter: true}, nil, 8)
	if !errors.Is(err, ErrResponderPanic) {
		t.Fatalf("panic refresh err = %v, want ErrResponderPanic", err)
	}
	if got := d.Version(); got != 2 {
		t.Errorf("version after panic refresh = %d, want 2", got)
	}
	if got := d.BatchTotals().RefreshFails; got != 2 {
		t.Errorf("refresh failures = %d, want 2", got)
	}

	// The deployment still serves and a later healthy refresh succeeds.
	if err := d.Refresh(context.Background(), echoResponder("v3"), nil, 4); err != nil {
		t.Fatalf("recovery refresh: %v", err)
	}
	if got := d.Version(); got != 3 {
		t.Errorf("version after recovery = %d, want 3", got)
	}
}

// TestRunBatchRequeuesFailures: failed queries go back on the bounded
// queue and are processed once the responder recovers; the accounting
// ledger balances.
func TestRunBatchRequeuesFailures(t *testing.T) {
	boom := errors.New("transient")
	flaky := &failAfterResponder{n: 0, err: boom} // fails every call for now
	d := NewDeploymentContext(DeployConfig{DailyCacheCap: 64, CacheShards: 1, QueueCap: 32}, flaky)
	for i := 0; i < 10; i++ {
		d.HandleQuery(fmt.Sprintf("q%d", i))
	}
	res := d.RunBatchContext(context.Background(), 64)
	if res.Drained != 10 || res.Failed != 10 || res.Requeued != 10 || res.Succeeded != 0 {
		t.Fatalf("failing batch = %+v", res)
	}
	if got := d.Cache.Stats().BatchQueued; got != 10 {
		t.Fatalf("queue depth = %d, want 10 after requeue", got)
	}
	// The responder recovers: the requeued queries process on the next run.
	flaky.n = 1 << 30
	res = d.RunBatchContext(context.Background(), 64)
	if res.Drained != 10 || res.Succeeded != 10 {
		t.Fatalf("recovery batch = %+v", res)
	}
	bt := d.BatchTotals()
	if bt.Succeeded != 10 || bt.Failed != 10 || bt.Requeued != 10 || bt.RequeueDropped != 0 {
		t.Errorf("totals = %+v", bt)
	}
	// Ledger: every push is drained, dropped, or still queued.
	cs := d.Cache.Stats()
	if pushes := cs.BatchEnqueued + cs.BatchRequeued; pushes != 20 {
		t.Errorf("pushes = %d, want 20 (10 misses + 10 requeues)", pushes)
	}
	if cs.BatchQueued != 0 {
		t.Errorf("queue depth = %d after recovery, want 0", cs.BatchQueued)
	}
}

// TestRunBatchRequeueOverflowDrops: when a shard's queue is already
// full, the requeued query is dropped with the metric rather than
// evicting fresh work, and its de-dup claim is released so a later miss
// can queue it again.
func TestRunBatchRequeueOverflowDrops(t *testing.T) {
	boom := errors.New("down")
	d := NewDeploymentContext(DeployConfig{DailyCacheCap: 8, CacheShards: 1, QueueCap: 2}, &failAfterResponder{err: boom})
	d.HandleQuery("a")
	d.HandleQuery("b")
	// Drain both, then refill the queue before the failures requeue.
	queries := d.Cache.DrainQueue(2)
	if len(queries) != 2 {
		t.Fatalf("drained %d", len(queries))
	}
	d.HandleQuery("c")
	d.HandleQuery("e")
	for _, q := range queries {
		if d.Cache.Requeue(q) {
			t.Errorf("requeue %q succeeded with a full queue", q)
		}
	}
	// The dropped queries' de-dup claims are gone: a fresh miss can
	// re-enqueue them (dropping the oldest fresh entries in turn).
	d.HandleQuery("a")
	found := false
	for _, q := range d.Cache.DrainQueue(10) {
		if q == "a" {
			found = true
		}
	}
	if !found {
		t.Error("dropped requeue left a stale de-dup claim; 'a' could not re-enqueue")
	}
}

// TestRunBatchRecoversPanics: one poisoned query must not take down the
// batch; it is recovered, counted and requeued while the rest process.
func TestRunBatchRecoversPanics(t *testing.T) {
	poison := ContextResponderFunc(func(ctx context.Context, q string) (Feature, error) {
		if q == "poison" {
			panic("query of death")
		}
		return Feature{Query: q}, nil
	})
	d := NewDeploymentContext(DeployConfig{DailyCacheCap: 64, QueueCap: 32}, poison)
	d.HandleQuery("poison")
	d.HandleQuery("fine")
	res := d.RunBatchContext(context.Background(), 10)
	if res.Drained != 2 || res.Succeeded != 1 || res.Failed != 1 {
		t.Fatalf("batch = %+v", res)
	}
	if got := d.BatchTotals().Panics; got != 1 {
		t.Errorf("panics = %d, want 1", got)
	}
	if _, ok := storeGet(d, "fine"); !ok {
		t.Error("healthy query was not processed alongside the poisoned one")
	}
}

// TestDrainQueueRotatesShards is the satellite regression test for
// shard starvation: with more backlog than the batch size, consecutive
// drains must reach every shard rather than hammering shard 0.
func TestDrainQueueRotatesShards(t *testing.T) {
	c := NewAsyncCacheWithConfig(CacheConfig{DailyCap: 64, Shards: 8, QueueCap: 512})
	// Queue enough distinct queries that every shard has a backlog.
	for i := 0; i < 256; i++ {
		c.Lookup(fmt.Sprintf("q%d", i))
	}
	perShardBefore := make([]int, len(c.shards))
	for i, s := range c.shards {
		perShardBefore[i] = s.snapshot().BatchQueued
	}
	// Drain in small batches, fewer than the backlog per pass, without
	// installing (so drained work stays de-duped and nothing refills).
	// With rotation, after len(shards) passes every shard must have
	// been visited first exactly once, so all shards shrink.
	for pass := 0; pass < len(c.shards); pass++ {
		if got := len(c.DrainQueue(4)); got != 4 {
			t.Fatalf("pass %d drained %d", pass, got)
		}
	}
	shrunk := 0
	for i, s := range c.shards {
		if s.snapshot().BatchQueued < perShardBefore[i] {
			shrunk++
		}
	}
	if shrunk < len(c.shards) {
		t.Errorf("only %d/%d shards were drained across a full rotation; starvation persists",
			shrunk, len(c.shards))
	}
}

// TestStartWorkerFinalDrainEmptiesBacklog is the satellite regression
// test for shutdown: a backlog far larger than one batch, queued before
// cancellation, must be fully processed by the final drain.
func TestStartWorkerFinalDrainEmptiesBacklog(t *testing.T) {
	d := NewDeploymentContext(DeployConfig{DailyCacheCap: 512, QueueCap: 1024}, echoResponder("v1"))
	ctx, cancel := context.WithCancel(context.Background())
	// Long interval: the ticker will not fire before cancellation, so
	// everything rides on the final drain.
	done := d.StartWorker(ctx, time.Hour, 16)
	for i := 0; i < 300; i++ { // 300 queries >> batchSize 16
		d.HandleQuery(fmt.Sprintf("backlog-%d", i))
	}
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not stop")
	}
	if got := d.Cache.Stats().BatchQueued; got != 0 {
		t.Errorf("queue depth = %d after final drain, want 0", got)
	}
	if got := d.Cache.Stats().StoreSize; got != 300 {
		t.Errorf("store = %d features, want 300", got)
	}
}

// TestStartWorkerFinalDrainStopsWhenResponderDown: with the responder
// hard-down, the final drain must terminate (not spin on requeues) and
// leave the backlog accounted as requeued.
func TestStartWorkerFinalDrainStopsWhenResponderDown(t *testing.T) {
	down := &failAfterResponder{err: errors.New("down")}
	d := NewDeploymentContext(DeployConfig{DailyCacheCap: 64, QueueCap: 256}, down)
	ctx, cancel := context.WithCancel(context.Background())
	done := d.StartWorker(ctx, time.Hour, 16)
	for i := 0; i < 50; i++ {
		d.HandleQuery(fmt.Sprintf("q%d", i))
	}
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("final drain spun forever on a down responder")
	}
	bt := d.BatchTotals()
	if bt.Succeeded != 0 {
		t.Errorf("succeeded = %d with a down responder", bt.Succeeded)
	}
	if bt.Requeued == 0 {
		t.Error("down-responder drain recorded no requeues")
	}
}

// TestReadyzLifecycle: /readyz is 503 through warmup, 200 once ready,
// 503 again while the breaker is open, and recovers when it closes.
func TestReadyzLifecycle(t *testing.T) {
	clock := NewFakeClock(time.Date(2026, 8, 6, 9, 0, 0, 0, time.UTC))
	inner := &flakyResponder{failures: -1}
	r := NewResilient(inner, ResilienceConfig{
		CallTimeout: 100 * time.Millisecond,
		MaxRetries:  -1,
		Breaker:     BreakerConfig{Threshold: 2, Cooldown: time.Second, Probes: 1, Clock: clock},
		Seed:        1,
	})
	d := NewDeploymentContext(DeployConfig{DailyCacheCap: 16}, r)
	srv := httptest.NewServer(NewHTTPHandler(d))
	defer srv.Close()

	status := func() int {
		resp, err := http.Get(srv.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := status(); got != http.StatusServiceUnavailable {
		t.Errorf("warming readyz = %d, want 503", got)
	}
	if got := status(); got != http.StatusServiceUnavailable {
		t.Errorf("readyz again = %d, want 503", got)
	}
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d during warmup; liveness must not gate on readiness", resp.StatusCode)
	}

	d.SetReady(true)
	if got := status(); got != http.StatusOK {
		t.Errorf("ready readyz = %d, want 200", got)
	}

	// Trip the breaker: two failed calls through the batch path.
	d.HandleQuery("a")
	d.HandleQuery("b")
	d.RunBatchContext(context.Background(), 10)
	if got := r.ResilienceStats().BreakerState; got != BreakerOpen {
		t.Fatalf("breaker = %v, want open", got)
	}
	if got := status(); got != http.StatusServiceUnavailable {
		t.Errorf("breaker-open readyz = %d, want 503", got)
	}

	// Heal, cool down, probe succeeds: ready again.
	inner.mu.Lock()
	inner.failures = 0
	inner.mu.Unlock()
	clock.Advance(2 * time.Second)
	d.RunBatchContext(context.Background(), 10) // drains requeued queries; probe closes the breaker
	if got := r.ResilienceStats().BreakerState; got != BreakerClosed {
		t.Fatalf("breaker = %v after heal, want closed", got)
	}
	if got := status(); got != http.StatusOK {
		t.Errorf("healed readyz = %d, want 200", got)
	}
}

// TestMetricsResilienceExport: the new counters appear on /metrics with
// the documented names.
func TestMetricsResilienceExport(t *testing.T) {
	inner := &flakyResponder{failures: 1}
	r := NewResilient(inner, fastCfg())
	d := NewDeploymentContext(DeployConfig{DailyCacheCap: 16}, r)
	d.SetReady(true)
	d.HandleQuery("camping")
	d.RunBatchContext(context.Background(), 10)
	srv := httptest.NewServer(NewHTTPHandler(d))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"cosmo_responder_failures_total 0", // retry recovered the call
		"cosmo_responder_retries_total 1",
		"cosmo_responder_attempt_failures_total 1",
		"cosmo_breaker_state 0",
		"cosmo_batch_requeued_total 0",
		"cosmo_batch_processed_total 1",
		"cosmo_stale_served_total 0",
		"cosmo_refresh_failures_total 0",
		"cosmo_ready 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
