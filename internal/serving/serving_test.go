package serving

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cosmo/internal/kg"
)

// echoResponder fabricates a deterministic feature for any query.
func echoResponder(version string) ContextResponder {
	return ContextResponderFunc(func(ctx context.Context, q string) (Feature, error) {
		if err := ctx.Err(); err != nil {
			return Feature{}, err
		}
		return Feature{
			Query:        q,
			Intents:      []string{"used for " + q, version},
			Relations:    []string{"USED_FOR_FUNC"},
			SubCategory:  q,
			StrongIntent: true,
		}, nil
	})
}

func TestFeatureStoreBasics(t *testing.T) {
	s := NewFeatureStoreWithCap(4)
	s.Put(Feature{Query: "camping", Version: 1})
	s.Put(Feature{Query: "hiking", Version: 2})
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	f, ok := s.Get("camping")
	if !ok || f.Version != 1 {
		t.Fatalf("get = %+v %v", f, ok)
	}
	if _, ok := s.Get("nope"); ok {
		t.Error("missing key should miss")
	}
	// A capacity below 1 is raised to 1: the store always keeps the
	// newest insert.
	one := NewFeatureStoreWithCap(0)
	one.Put(Feature{Query: "a"})
	one.Put(Feature{Query: "b"})
	if _, ok := one.Get("b"); !ok || one.Len() != 1 {
		t.Errorf("cap-0 store: len = %d, newest present = %v; want 1, true", one.Len(), ok)
	}
}

func TestFeatureStoreCapEvictsOldest(t *testing.T) {
	s := NewFeatureStoreWithCap(3)
	for i, q := range []string{"a", "b", "c"} {
		s.Put(Feature{Query: q, Version: i})
	}
	// Re-putting an existing key must not evict anything.
	s.Put(Feature{Query: "a", Version: 10})
	if s.Len() != 3 {
		t.Fatalf("len = %d, want 3", s.Len())
	}
	// Inserting a fourth key evicts the oldest insert ("a").
	s.Put(Feature{Query: "d", Version: 4})
	if s.Len() != 3 {
		t.Fatalf("len after overflow = %d, want 3", s.Len())
	}
	if _, ok := s.Get("a"); ok {
		t.Error("oldest entry should have been evicted")
	}
	for _, q := range []string{"b", "c", "d"} {
		if _, ok := s.Get(q); !ok {
			t.Errorf("entry %q should survive", q)
		}
	}
}

func TestFeatureStoreCapManyInserts(t *testing.T) {
	// Sustained distinct inserts stay at the cap, and the FIFO holds
	// exactly the stored keys rather than growing with total inserts.
	s := NewFeatureStoreWithCap(8)
	for i := 0; i < 10000; i++ {
		s.Put(Feature{Query: fmt.Sprintf("q%d", i), Version: i})
	}
	if s.Len() != 8 {
		t.Fatalf("len = %d, want 8", s.Len())
	}
	if n := len(s.order); n != s.Len() {
		t.Errorf("order holds %d keys for %d stored features", n, s.Len())
	}
	for i := 9992; i < 10000; i++ {
		if _, ok := s.Get(fmt.Sprintf("q%d", i)); !ok {
			t.Errorf("newest entry q%d missing", i)
		}
	}
}

func TestAsyncCacheTwoLayers(t *testing.T) {
	c := NewAsyncCache(2)
	c.PreloadYearly([]Feature{{Query: "yearly-hot"}})
	if _, ok := c.Lookup("yearly-hot"); !ok {
		t.Fatal("yearly layer miss")
	}
	// Miss queues for batch.
	if _, ok := c.Lookup("fresh"); ok {
		t.Fatal("unexpected hit")
	}
	queued := c.DrainQueue(10)
	if len(queued) != 1 || queued[0] != "fresh" {
		t.Fatalf("queue = %v", queued)
	}
	c.InstallDaily(Feature{Query: "fresh"})
	if _, ok := c.Lookup("fresh"); !ok {
		t.Fatal("daily layer miss after install")
	}
	stats := c.Stats()
	if stats.YearlyHits != 1 || stats.DailyHits != 1 || stats.Misses != 1 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestAsyncCacheLRUEviction(t *testing.T) {
	// Single shard: LRU ordering is a per-shard property, and this test
	// asserts exact eviction order across three keys.
	c := NewAsyncCacheWithConfig(CacheConfig{DailyCap: 2, Shards: 1})
	c.InstallDaily(Feature{Query: "a"})
	c.InstallDaily(Feature{Query: "b"})
	c.Lookup("a") // refresh a
	c.InstallDaily(Feature{Query: "c"})
	if _, ok := c.Lookup("b"); ok {
		t.Error("b should have been evicted (LRU)")
	}
	if _, ok := c.Lookup("a"); !ok {
		t.Error("a should survive")
	}
	if _, ok := c.Lookup("c"); !ok {
		t.Error("c should be present")
	}
	if c.Stats().Evictions != 1 {
		t.Errorf("evictions = %d", c.Stats().Evictions)
	}
}

func TestAsyncCacheMissQueuesOnce(t *testing.T) {
	c := NewAsyncCache(4)
	for i := 0; i < 5; i++ {
		c.Lookup("same")
	}
	if q := c.DrainQueue(10); len(q) != 1 {
		t.Errorf("queued %d copies", len(q))
	}
}

func TestDeploymentRequestFlow(t *testing.T) {
	d := NewDeploymentContext(DeployConfig{DailyCacheCap: 64}, echoResponder("v1"))
	// Cold query: miss, queued.
	if _, ok := d.HandleQuery("camping"); ok {
		t.Fatal("cold query should miss")
	}
	// Batch processing installs the feature.
	if n := d.RunBatchContext(context.Background(), 10).Succeeded; n != 1 {
		t.Fatalf("batch processed %d", n)
	}
	f, ok := d.HandleQuery("camping")
	if !ok {
		t.Fatal("warm query should hit")
	}
	if f.Version != 1 || len(f.Intents) == 0 {
		t.Errorf("feature = %+v", f)
	}
	if got := d.Store.Len(); got != 1 {
		t.Errorf("feature store len = %d", got)
	}
}

func TestDailyRefreshRotatesModelAndCaches(t *testing.T) {
	d := NewDeploymentContext(DeployConfig{DailyCacheCap: 64}, echoResponder("v1"))
	// Generate traffic so the feedback loop knows what is frequent.
	for i := 0; i < 10; i++ {
		d.HandleQuery("hot")
	}
	d.HandleQuery("cold")
	d.RunBatchContext(context.Background(), 10)
	if err := d.Refresh(context.Background(), echoResponder("v2"), nil, 1); err != nil {
		t.Fatalf("refresh: %v", err)
	}
	if d.Version() != 2 {
		t.Fatalf("version = %d", d.Version())
	}
	// "hot" moved into the yearly layer by the refresh.
	f, ok := d.HandleQuery("hot")
	if !ok {
		t.Fatal("hot query should be preloaded after refresh")
	}
	if f.Version != 2 {
		t.Errorf("hot feature version = %d, want 2", f.Version)
	}
	if f.Stale {
		t.Error("yearly hit must not be flagged stale")
	}
	// "cold" was only in the daily layer, which the refresh reset; the
	// cache misses, but its prior-version feature degrades gracefully:
	// served from the feature store flagged stale.
	cf, ok := d.HandleQuery("cold")
	if !ok {
		t.Fatal("cold query should degrade to the stale store feature")
	}
	if !cf.Stale || cf.Version != 1 {
		t.Errorf("cold feature = stale %v version %d, want stale v1", cf.Stale, cf.Version)
	}
	// The cache itself recorded a miss, and the stale serve is counted.
	if got := d.BatchTotals().StaleServed; got != 1 {
		t.Errorf("stale served = %d, want 1", got)
	}
	// A never-seen query still misses outright: nothing to degrade to.
	if _, ok := d.HandleQuery("never-seen"); ok {
		t.Error("unknown query should miss with no stale fallback")
	}
}

// TestDailyRefreshNegativeYearlyTop is a regression test: a negative
// yearlyTop used to slice counts[:yearlyTop] and panic.
func TestDailyRefreshNegativeYearlyTop(t *testing.T) {
	d := NewDeploymentContext(DeployConfig{DailyCacheCap: 16}, echoResponder("v1"))
	d.HandleQuery("camping")
	d.RunBatchContext(context.Background(), 10)
	if err := d.Refresh(context.Background(), echoResponder("v2"), nil, -5); err != nil { // must not panic
		t.Fatalf("refresh: %v", err)
	}
	if d.Version() != 2 {
		t.Errorf("version = %d, want 2", d.Version())
	}
	if got := d.Cache.Stats().YearlySize; got != 0 {
		t.Errorf("yearly size = %d, want 0 for clamped top", got)
	}
}

// TestBoundedQueueDropOldest checks the bounded miss queue's
// drop-oldest policy and that dropped queries leave the de-dup map so
// they can be re-enqueued by a later miss.
func TestBoundedQueueDropOldest(t *testing.T) {
	c := NewAsyncCacheWithConfig(CacheConfig{DailyCap: 8, Shards: 1, QueueCap: 2})
	c.Lookup("a")
	c.Lookup("b")
	c.Lookup("c") // queue full: "a" dropped to admit "c"
	if got := c.Stats().BatchDropped; got != 1 {
		t.Fatalf("dropped = %d, want 1", got)
	}
	if got := c.Stats().BatchQueued; got != 2 {
		t.Fatalf("queued = %d, want 2", got)
	}
	// The dropped query must be re-enqueueable: its queued-map entry was
	// cleared on drop, so this miss drops "b" and re-admits "a".
	c.Lookup("a")
	q := c.DrainQueue(10)
	if len(q) != 2 || q[0] != "c" || q[1] != "a" {
		t.Fatalf("queue after re-enqueue = %v, want [c a]", q)
	}
	if got := c.Stats().BatchDropped; got != 2 {
		t.Errorf("dropped = %d, want 2", got)
	}
	// Drained queries stay de-duped until installed: a second miss on
	// "c" while its batch is in flight must not enqueue a duplicate.
	c.Lookup("c")
	if q := c.DrainQueue(10); len(q) != 0 {
		t.Errorf("in-flight query re-queued: %v", q)
	}
}

// TestQueuedMapStaysInSync: under arbitrary lookup/drop/drain/install
// interleavings the de-dup map must track exactly the ring contents
// plus in-flight drained queries that were never installed.
func TestQueuedMapStaysInSync(t *testing.T) {
	c := NewAsyncCacheWithConfig(CacheConfig{DailyCap: 4, Shards: 1, QueueCap: 4})
	s := c.shards[0]
	for i := 0; i < 200; i++ {
		q := fmt.Sprintf("q%d", i%13)
		switch i % 4 {
		case 0, 1:
			c.Lookup(q)
		case 2:
			for _, drained := range c.DrainQueue(2) {
				c.InstallDaily(Feature{Query: drained})
			}
		default:
			c.InstallDaily(Feature{Query: q})
		}
		s.mu.Lock()
		qLen := s.qLen
		s.mu.Unlock()
		if qLen > 4 {
			t.Fatalf("step %d: ring %d exceeds cap", i, qLen)
		}
	}
	// Drain fully and install everything: the map must empty out.
	for _, q := range c.DrainQueue(100) {
		c.InstallDaily(Feature{Query: q})
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.qLen != 0 || len(s.queued) != 0 {
		t.Errorf("after full drain+install: ring %d, queued map %d", s.qLen, len(s.queued))
	}
}

func TestShardRouting(t *testing.T) {
	c := NewAsyncCache(1024)
	if c.NumShards() != DefaultCacheShards {
		t.Fatalf("shards = %d, want %d", c.NumShards(), DefaultCacheShards)
	}
	// Tiny caches clamp the stripe count so per-shard capacity stays >= 1.
	if got := NewAsyncCache(2).NumShards(); got > 2 {
		t.Errorf("tiny cache shards = %d", got)
	}
	// All installed keys are findable regardless of which shard they hash to.
	for i := 0; i < 100; i++ {
		c.InstallDaily(Feature{Query: fmt.Sprintf("k%d", i)})
	}
	for i := 0; i < 100; i++ {
		if _, ok := c.Lookup(fmt.Sprintf("k%d", i)); !ok {
			t.Fatalf("k%d missing after install", i)
		}
	}
	// DrainQueue reaches queries queued on every shard.
	for i := 0; i < 64; i++ {
		c.Lookup(fmt.Sprintf("miss%d", i))
	}
	if got := len(c.DrainQueue(1000)); got != 64 {
		t.Errorf("drained %d of 64 queued misses", got)
	}
}

// stepClock advances by step on every Now, so a handler timed on it
// measures exactly one step.
type stepClock struct {
	mu   sync.Mutex
	t    time.Time
	step time.Duration
}

func (c *stepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(c.step)
	return c.t
}

// TestLatencyPercentiles: NewHTTPHandler times each query endpoint on
// the deployment's clock into that endpoint's own histogram — a 3ms
// step reads as 3ms on every request — while HandleQuery itself and
// the untimed endpoints record nothing.
func TestLatencyPercentiles(t *testing.T) {
	d := NewDeploymentContext(DeployConfig{}, echoResponder("v1"))
	d.Install(NewGeneration(testSnapshot(t), kg.SnapshotStamp{}))
	d.Clock = &stepClock{step: 3 * time.Millisecond}
	for _, e := range timedEndpoints {
		if s := d.Latency(e); s.Total != 0 || s.Quantile(0.99) != 0 {
			t.Errorf("%s: empty latency = %+v, want 0", e, s)
		}
	}
	d.HandleQuery("a")
	h := NewHTTPHandler(d)
	send := func(method, target, body string) {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(method, target, strings.NewReader(body)))
	}
	sent := map[string]int{"intent": 4, "intentions": 1, "related": 2, "similar": 3, "batch": 1}
	for i := 0; i < sent["intent"]; i++ {
		send(http.MethodGet, "/intent?q=a", "")
	}
	send(http.MethodGet, "/intentions?id=q:tent", "")
	send(http.MethodGet, "/related?id=p:P1", "")
	send(http.MethodGet, "/related?id=missing", "")
	for i := 0; i < sent["similar"]; i++ {
		send(http.MethodGet, "/similar?q=camping", "")
	}
	send(http.MethodPost, "/batch", `[{"op":"intent","q":"a"}]`)
	send(http.MethodGet, "/kg", "")
	send(http.MethodGet, "/metrics", "")
	for _, e := range timedEndpoints {
		s := d.Latency(e)
		if s.Total != int64(sent[e]) {
			t.Errorf("%s: %d observations, want %d", e, s.Total, sent[e])
		}
		if p50, p99 := s.Quantile(0.50), s.Quantile(0.99); p50 != 3 || p99 != 3 {
			t.Errorf("%s: p50 %v p99 %v, want the 3ms step", e, p50, p99)
		}
		if want := 3 * float64(sent[e]); s.SumMs != want {
			t.Errorf("%s: sum %vms, want %vms", e, s.SumMs, want)
		}
	}
	if s := d.Latency("kg"); s.Total != 0 {
		t.Errorf("untimed /kg reads %d observations", s.Total)
	}
}

func TestTopInteractions(t *testing.T) {
	d := NewDeploymentContext(DeployConfig{}, echoResponder("v1"))
	for i := 0; i < 3; i++ {
		d.HandleQuery("x")
	}
	d.HandleQuery("y")
	top := d.TopInteractions(1)
	if len(top) != 1 || top[0] != "x" {
		t.Errorf("top = %v", top)
	}
}

// TestInteractionCounterBounded: the feedback counter holds at most
// DefaultFeatureStoreCap queries however many distinct ones arrive.
// Once it is full a query not yet counted is not admitted, and a hot
// query counted earlier keeps counting and still leads TopInteractions.
func TestInteractionCounterBounded(t *testing.T) {
	d := NewDeploymentContext(DeployConfig{}, echoResponder("v1"))
	for i := 0; i < 3; i++ {
		d.HandleQuery("hot")
	}
	const workers, extra = 4, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < DefaultFeatureStoreCap+extra; i += workers {
				d.HandleQuery(fmt.Sprintf("q%d", i))
			}
		}(w)
	}
	wg.Wait()
	d.HandleQuery("hot")
	d.HandleQuery("late")

	held := 0
	for i := range d.interactions.stripes {
		held += len(d.interactions.stripes[i].counts)
	}
	if held != DefaultFeatureStoreCap || d.interactions.size.Load() != DefaultFeatureStoreCap {
		t.Errorf("counter holds %d queries (size %d), want the cap %d",
			held, d.interactions.size.Load(), DefaultFeatureStoreCap)
	}
	counts := d.interactions.sorted()
	if counts[0] != (queryCount{"hot", 4}) {
		t.Errorf("top count = %+v, want hot counted 4 times", counts[0])
	}
	if top := d.TopInteractions(1); len(top) != 1 || top[0] != "hot" {
		t.Errorf("TopInteractions(1) = %v, want [hot]", top)
	}
	for _, qc := range counts {
		if qc.q == "late" {
			t.Error("a query first seen after the cap was admitted")
		}
	}
}

func TestDeploymentConcurrent(t *testing.T) {
	d := NewDeploymentContext(DeployConfig{DailyCacheCap: 128}, echoResponder("v1"))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				q := fmt.Sprintf("q%d", rng.Intn(50))
				d.HandleQuery(q)
				if i%20 == 0 {
					d.RunBatchContext(context.Background(), 8)
				}
			}
		}(int64(w))
	}
	wg.Wait()
	stats := d.Cache.Stats()
	if stats.Hits == 0 {
		t.Error("no hits under concurrent load")
	}
	if stats.HitRate() < 0.5 {
		t.Errorf("hit rate %.2f too low for 50 hot queries", stats.HitRate())
	}
}

func TestHTTPHandler(t *testing.T) {
	d := NewDeploymentContext(DeployConfig{DailyCacheCap: 64},
		NewResilient(echoResponder("v1"), ResilienceConfig{}))
	srv := httptest.NewServer(NewHTTPHandler(d))
	defer srv.Close()

	// Missing q.
	resp, err := http.Get(srv.URL + "/intent")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing q status = %d", resp.StatusCode)
	}

	// Cold query: 202 queued.
	resp, err = http.Get(srv.URL + "/intent?q=camping")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("cold status = %d", resp.StatusCode)
	}

	d.RunBatchContext(context.Background(), 10)

	// Warm query: 200 with feature JSON.
	resp, err = http.Get(srv.URL + "/intent?q=camping")
	if err != nil {
		t.Fatal(err)
	}
	var f Feature
	if err := json.NewDecoder(resp.Body).Decode(&f); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || f.Query != "camping" {
		t.Errorf("warm response = %d %+v", resp.StatusCode, f)
	}

	// /stats is gone; /metrics carries the one counter only it reported.
	resp, err = http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/stats status = %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(metrics), "\ncosmo_responder_calls_total 1\n") {
		t.Errorf("metrics missing cosmo_responder_calls_total 1:\n%s", metrics)
	}

	// Health.
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("health = %d", resp.StatusCode)
	}
}

func TestFakeClock(t *testing.T) {
	c := NewFakeClock(time.Date(2026, 7, 6, 0, 0, 0, 0, time.UTC))
	before := c.Now()
	c.Advance(time.Hour)
	if !c.Now().After(before) {
		t.Error("clock did not advance")
	}
	var rc RealClock
	if rc.Now().IsZero() {
		t.Error("real clock zero")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	d := NewDeploymentContext(DeployConfig{DailyCacheCap: 64}, echoResponder("v1"))
	d.HandleQuery("camping")
	d.RunBatchContext(context.Background(), 10)
	d.HandleQuery("camping")
	srv := httptest.NewServer(NewHTTPHandler(d))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"cosmo_cache_hits_total 1",
		"cosmo_cache_misses_total 1",
		"cosmo_model_version 1",
		"cosmo_request_latency_ms{endpoint=\"intent\",quantile=\"0.5\"}",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

func TestFeatureTimestamps(t *testing.T) {
	d := NewDeploymentContext(DeployConfig{DailyCacheCap: 16}, echoResponder("v1"))
	clock := NewFakeClock(time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC))
	d.Clock = clock
	d.HandleQuery("camping")
	d.RunBatchContext(context.Background(), 10)
	f, ok := d.Store.Get("camping")
	if !ok {
		t.Fatal("feature missing")
	}
	if !f.CreatedAt.Equal(clock.Now()) {
		t.Errorf("CreatedAt = %v, want %v", f.CreatedAt, clock.Now())
	}
	clock.Advance(24 * time.Hour)
	if err := d.Refresh(context.Background(), echoResponder("v2"), nil, 4); err != nil {
		t.Fatalf("refresh: %v", err)
	}
	f2, _ := d.Store.Get("camping")
	if !f2.CreatedAt.After(f.CreatedAt) {
		t.Error("refresh should restamp the feature")
	}
}
