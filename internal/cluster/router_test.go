package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cosmo/internal/serving"
)

// stubBackend is a scriptable Backend for router unit tests.
type stubBackend struct {
	mu    sync.Mutex
	do    func(ctx context.Context) (Result, error)
	calls atomic.Int64
}

func okBackend(body string) *stubBackend {
	return &stubBackend{do: func(ctx context.Context) (Result, error) {
		return Result{Status: 200, ContentType: "text/plain", Body: []byte(body)}, nil
	}}
}

func (s *stubBackend) set(do func(ctx context.Context) (Result, error)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.do = do
}

func (s *stubBackend) Do(ctx context.Context, path, rawQuery string) (Result, error) {
	s.calls.Add(1)
	s.mu.Lock()
	do := s.do
	s.mu.Unlock()
	return do(ctx)
}

func (s *stubBackend) Check(ctx context.Context) Health { return HealthReady }

// keyWithPrimary finds a key whose current primary is the named node.
func keyWithPrimary(t *testing.T, r *Router, name string) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		key := fmt.Sprintf("probe-key-%d", i)
		rs := r.ReplicaSet(key)
		if len(rs) > 0 && rs[0] == name {
			return key
		}
	}
	t.Fatalf("no key found with primary %s", name)
	return ""
}

func newStubRouter(t *testing.T, n int, cfg Config) (*Router, []*stubBackend) {
	t.Helper()
	backends := make([]*stubBackend, n)
	specs := make([]NodeSpec, n)
	for i := range backends {
		backends[i] = okBackend(fmt.Sprintf("from-n%d", i))
		specs[i] = NodeSpec{Name: fmt.Sprintf("n%d", i), Backend: backends[i]}
	}
	r, err := New(specs, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return r, backends
}

func TestRouterRoutesToPrimary(t *testing.T) {
	r, backends := newStubRouter(t, 3, Config{Replication: 2})
	key := keyWithPrimary(t, r, "n1")
	res, err := r.Do(context.Background(), Request{Key: key, Path: "/intent", RawQuery: "q=" + key})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if string(res.Body) != "from-n1" {
		t.Fatalf("answer came from %q, want the primary n1", res.Body)
	}
	if got := backends[1].calls.Load(); got != 1 {
		t.Fatalf("primary saw %d calls, want 1", got)
	}
	if got := backends[0].calls.Load() + backends[2].calls.Load(); got != 0 {
		t.Fatalf("non-primaries saw %d calls, want 0", got)
	}
	s := r.Stats()
	if s.Requests != 1 || s.Errors != 0 || s.Failovers != 0 {
		t.Fatalf("stats = %+v, want 1 request, no errors/failovers", s)
	}
}

func TestRouterFailoverDeterministic(t *testing.T) {
	// High breaker threshold so the failing primary stays eligible: every
	// request must re-attempt it and fail over the same way.
	r, backends := newStubRouter(t, 3, Config{Replication: 2, HedgeMax: time.Hour, Breaker: serving.BreakerConfig{Threshold: 1000}})
	key := keyWithPrimary(t, r, "n0")
	rs := r.ReplicaSet(key)
	backends[0].set(func(ctx context.Context) (Result, error) {
		return Result{}, errors.New("boom")
	})
	want := "from-" + rs[1]
	for i := 0; i < 10; i++ {
		res, err := r.Do(context.Background(), Request{Key: key, Path: "/intent"})
		if err != nil {
			t.Fatalf("Do #%d: %v", i, err)
		}
		if string(res.Body) != want {
			t.Fatalf("Do #%d answered from %q, want deterministic failover to %s", i, res.Body, rs[1])
		}
	}
	s := r.Stats()
	if s.Failovers != 10 {
		t.Fatalf("failovers = %d, want 10", s.Failovers)
	}
	if s.Errors != 0 {
		t.Fatalf("client-visible errors = %d, want 0", s.Errors)
	}
}

func TestRouterFailoverOn5xx(t *testing.T) {
	r, backends := newStubRouter(t, 2, Config{Replication: 2, HedgeMax: time.Hour, Breaker: serving.BreakerConfig{Threshold: 1000}})
	key := keyWithPrimary(t, r, "n0")
	backends[0].set(func(ctx context.Context) (Result, error) {
		return Result{Status: 503}, nil
	})
	res, err := r.Do(context.Background(), Request{Key: key, Path: "/intent"})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if res.Status != 200 || string(res.Body) != "from-n1" {
		t.Fatalf("got %d %q, want the replica's 200", res.Status, res.Body)
	}
}

func TestRouterAllReplicasFailed(t *testing.T) {
	r, backends := newStubRouter(t, 2, Config{Replication: 2, HedgeMax: time.Hour, Breaker: serving.BreakerConfig{Threshold: 1000}})
	for _, b := range backends {
		b.set(func(ctx context.Context) (Result, error) {
			return Result{}, errors.New("boom")
		})
	}
	_, err := r.Do(context.Background(), Request{Key: "k", Path: "/intent"})
	if err == nil {
		t.Fatal("Do succeeded with every node failing")
	}
	if errors.Is(err, ErrNoEligibleNodes) {
		t.Fatalf("got ErrNoEligibleNodes; nodes were eligible, they just failed: %v", err)
	}
	if s := r.Stats(); s.Errors != 1 {
		t.Fatalf("errors = %d, want 1", s.Errors)
	}
}

func TestRouterHedgeWinsAgainstStraggler(t *testing.T) {
	r, backends := newStubRouter(t, 2, Config{
		Replication: 2,
		HedgeMin:    time.Millisecond,
		HedgeMax:    5 * time.Millisecond, // no warm histogram -> delay = HedgeMax
	})
	key := keyWithPrimary(t, r, "n0")
	primaryCancelled := make(chan struct{})
	backends[0].set(func(ctx context.Context) (Result, error) {
		<-ctx.Done() // wedged primary: blocks until the hedge win cancels it
		close(primaryCancelled)
		return Result{}, ctx.Err()
	})
	res, err := r.Do(context.Background(), Request{Key: key, Path: "/intent"})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if string(res.Body) != "from-n1" {
		t.Fatalf("answer came from %q, want the hedge replica n1", res.Body)
	}
	select {
	case <-primaryCancelled:
	case <-time.After(2 * time.Second):
		t.Fatal("hedge win did not cancel the losing primary")
	}
	s := r.Stats()
	if s.Hedges != 1 || s.HedgeWins != 1 {
		t.Fatalf("hedges=%d hedgeWins=%d, want 1/1", s.Hedges, s.HedgeWins)
	}
	if got := s.HedgeWinRatio(); got != 1.0 {
		t.Fatalf("hedge win ratio = %g, want 1", got)
	}
	var n1 NodeStats
	for _, n := range s.Nodes {
		if n.Name == "n1" {
			n1 = n
		}
	}
	if n1.HedgeWins != 1 {
		t.Fatalf("node n1 hedge wins = %d, want 1", n1.HedgeWins)
	}
}

func TestRouterHedgeDelayDerivation(t *testing.T) {
	r, _ := newStubRouter(t, 2, Config{
		Replication:     2,
		HedgeQuantile:   0.99,
		HedgeMin:        2 * time.Millisecond,
		HedgeMax:        100 * time.Millisecond,
		MinHedgeSamples: 8,
	})
	// Cold: no node has enough samples -> conservative HedgeMax.
	if got := r.hedgeDelay(); got != 100*time.Millisecond {
		t.Fatalf("cold hedge delay = %v, want HedgeMax", got)
	}
	// Warm one node fast, the other slow: the delay is the MIN across
	// nodes — the straggler must not inflate its own protection delay.
	for i := 0; i < 100; i++ {
		r.nodes[0].hist.Observe(4)  // ~4ms node
		r.nodes[1].hist.Observe(80) // straggler
	}
	got := r.hedgeDelay()
	if got < 2*time.Millisecond || got > 20*time.Millisecond {
		t.Fatalf("warm hedge delay = %v, want ~4ms (fast node's p99), not the straggler's", got)
	}
	// Clamp below: a sub-millisecond node still hedges no sooner than
	// HedgeMin.
	for i := 0; i < 200; i++ {
		r.nodes[0].hist.Observe(0.1)
	}
	if got := r.hedgeDelay(); got < 2*time.Millisecond {
		t.Fatalf("hedge delay = %v, want clamped at HedgeMin", got)
	}
}

func TestRouterBreakerExclusionAndRecovery(t *testing.T) {
	clock := serving.NewFakeClock(time.Unix(1_700_000_000, 0))
	r, backends := newStubRouter(t, 3, Config{
		Replication: 2,
		HedgeMax:    time.Hour, // no hedging in this test
		Breaker:     serving.BreakerConfig{Threshold: 3, Cooldown: 5 * time.Second, Probes: 1, Clock: clock},
	})
	key := keyWithPrimary(t, r, "n0")
	backends[0].set(func(ctx context.Context) (Result, error) {
		return Result{}, errors.New("boom")
	})
	// Three failed primary attempts trip n0's breaker; the client sees
	// none of them thanks to failover.
	for i := 0; i < 3; i++ {
		if _, err := r.Do(context.Background(), Request{Key: key, Path: "/intent"}); err != nil {
			t.Fatalf("Do #%d: %v", i, err)
		}
	}
	if r.EligibleNodes() != 2 {
		t.Fatalf("eligible = %d after breaker trip, want 2", r.EligibleNodes())
	}
	if rs := r.ReplicaSet(key); len(rs) == 0 || rs[0] == "n0" {
		t.Fatalf("replica set %v still led by the tripped node", rs)
	}
	// While open, requests for the key skip n0 entirely: no failover
	// attempt is burned on it.
	before := backends[0].calls.Load()
	if _, err := r.Do(context.Background(), Request{Key: key, Path: "/intent"}); err != nil {
		t.Fatalf("Do while open: %v", err)
	}
	if got := backends[0].calls.Load(); got != before {
		t.Fatalf("tripped node saw %d new calls, want 0", got-before)
	}
	// Cooldown passes, the node recovers, and the next request for the
	// key probes it half-open; one success closes the breaker.
	clock.Advance(6 * time.Second)
	backends[0].set(func(ctx context.Context) (Result, error) {
		return Result{Status: 200, Body: []byte("from-n0")}, nil
	})
	if r.EligibleNodes() != 3 {
		t.Fatalf("eligible = %d after cooldown, want 3 (half-open probe admissible)", r.EligibleNodes())
	}
	res, err := r.Do(context.Background(), Request{Key: key, Path: "/intent"})
	if err != nil {
		t.Fatalf("Do probe: %v", err)
	}
	if string(res.Body) != "from-n0" {
		t.Fatalf("probe answered from %q, want the recovered primary", res.Body)
	}
	var n0 NodeStats
	for _, n := range r.Stats().Nodes {
		if n.Name == "n0" {
			n0 = n
		}
	}
	if n0.BreakerState != serving.BreakerClosed {
		t.Fatalf("n0 breaker state = %v after successful probe, want closed", n0.BreakerState)
	}
	if n0.BreakerOpens != 1 {
		t.Fatalf("n0 breaker opens = %d, want 1", n0.BreakerOpens)
	}
}

func TestRouterNoEligibleNodes(t *testing.T) {
	dep := serving.NewDeploymentContext(serving.DeployConfig{}, nil)
	// Never marked ready: the lone node probes down.
	r, err := New([]NodeSpec{{Name: "n0", Backend: NewLocalBackend(dep)}}, Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	r.CheckHealth(context.Background())
	if r.EligibleNodes() != 0 {
		t.Fatalf("eligible = %d, want 0", r.EligibleNodes())
	}
	_, err = r.Do(context.Background(), Request{Key: "k", Path: "/intent"})
	if !errors.Is(err, ErrNoEligibleNodes) {
		t.Fatalf("err = %v, want ErrNoEligibleNodes", err)
	}
	if s := r.Stats(); s.NoReplica != 1 {
		t.Fatalf("noReplica = %d, want 1", s.NoReplica)
	}
}

func newLocalDeployment(t *testing.T, keys ...string) *serving.Deployment {
	t.Helper()
	dep := serving.NewDeploymentContext(serving.DeployConfig{DailyCacheCap: 64, QueueCap: 64},
		serving.ContextResponderFunc(func(ctx context.Context, q string) (serving.Feature, error) {
			return serving.Feature{Query: q, Intents: []string{"used for " + q}}, nil
		}))
	feats := make([]serving.Feature, 0, len(keys))
	for _, k := range keys {
		feats = append(feats, serving.Feature{Query: k, Intents: []string{"i"}, Version: 1, CreatedAt: dep.Clock.Now()})
	}
	dep.Cache.ReplaceYearly(feats)
	dep.SetReady(true)
	return dep
}

func TestRouterDrainingNodeExcluded(t *testing.T) {
	d0 := newLocalDeployment(t, "camping")
	d1 := newLocalDeployment(t, "camping")
	r, err := New([]NodeSpec{
		{Name: "n0", Backend: NewLocalBackend(d0)},
		{Name: "n1", Backend: NewLocalBackend(d1)},
	}, Config{Replication: 2, HedgeMax: time.Hour})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	r.CheckHealth(context.Background())
	if r.EligibleNodes() != 2 {
		t.Fatalf("eligible = %d, want 2", r.EligibleNodes())
	}
	key := keyWithPrimary(t, r, "n0")

	d0.BeginDrain()
	r.CheckHealth(context.Background())
	if r.EligibleNodes() != 1 {
		t.Fatalf("eligible = %d after drain, want 1", r.EligibleNodes())
	}
	rs := r.ReplicaSet(key)
	if len(rs) != 1 || rs[0] != "n1" {
		t.Fatalf("replica set = %v with n0 draining, want [n1]", rs)
	}
	res, err := r.Do(context.Background(), Request{Key: key, Path: "/intent", RawQuery: "q=camping"})
	if err != nil {
		t.Fatalf("Do during drain: %v", err)
	}
	if res.Status != 200 {
		t.Fatalf("status %d during drain, want 200 from the surviving node", res.Status)
	}
	var drainHealth Health
	for _, n := range r.Stats().Nodes {
		if n.Name == "n0" {
			drainHealth = n.Health
		}
	}
	if drainHealth != HealthDraining {
		t.Fatalf("n0 health = %v, want draining", drainHealth)
	}
}

func TestRouterHTTPHandler(t *testing.T) {
	dep := newLocalDeployment(t, "camping")
	r, err := New([]NodeSpec{{Name: "n0", Backend: NewLocalBackend(dep)}}, Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	r.CheckHealth(context.Background())
	h := NewHTTPHandler(r)

	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}

	if rec := get("/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("/readyz = %d, want 200", rec.Code)
	}
	if rec := get("/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", rec.Code)
	}
	rec := get("/intent?q=camping")
	if rec.Code != http.StatusOK {
		t.Fatalf("/intent = %d (%s), want 200", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "json") {
		t.Fatalf("proxied Content-Type = %q, want the node's json", ct)
	}
	if !strings.Contains(rec.Body.String(), "camping") {
		t.Fatalf("proxied body %q does not echo the query", rec.Body.String())
	}
	if rec := get("/intent"); rec.Code != http.StatusBadRequest {
		t.Fatalf("/intent with no q = %d, want 400", rec.Code)
	}
	rec = get("/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics = %d, want 200", rec.Code)
	}
	for _, want := range []string{
		"cosmo_router_requests_total 1",
		"cosmo_router_nodes 1",
		"cosmo_node_routes_total{node=\"n0\"}",
		"cosmo_router_hedge_win_ratio",
	} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, rec.Body.String())
		}
	}

	// Node goes away: /readyz flips 503, queries answer 503.
	dep.SetReady(false)
	r.CheckHealth(context.Background())
	if rec := get("/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with no eligible nodes = %d, want 503", rec.Code)
	}
	if rec := get("/intent?q=camping"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/intent with no eligible nodes = %d, want 503", rec.Code)
	}
}

func TestRouterConfigValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("New accepted an empty node set")
	}
	b := okBackend("x")
	if _, err := New([]NodeSpec{{Name: "", Backend: b}}, Config{}); err == nil {
		t.Fatal("New accepted an unnamed node")
	}
	if _, err := New([]NodeSpec{{Name: "a", Backend: nil}}, Config{}); err == nil {
		t.Fatal("New accepted a nil backend")
	}
	if _, err := New([]NodeSpec{{Name: "a", Backend: b}, {Name: "a", Backend: b}}, Config{}); err == nil {
		t.Fatal("New accepted duplicate node names")
	}
	// Replication above the node count is capped, not rejected.
	r, err := New([]NodeSpec{{Name: "a", Backend: b}}, Config{Replication: 5})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if r.cfg.Replication != 1 {
		t.Fatalf("replication = %d, want capped at 1", r.cfg.Replication)
	}
}

func TestRouterHealthLoop(t *testing.T) {
	dep := newLocalDeployment(t, "k")
	dep.SetReady(false)
	r, err := New([]NodeSpec{{Name: "n0", Backend: NewLocalBackend(dep)}},
		Config{ProbeInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := r.StartHealthLoop(ctx)
	// The loop notices the node going down, then coming back.
	waitEligible := func(want int, what string) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for r.EligibleNodes() != want {
			if time.Now().After(deadline) {
				t.Fatalf("health loop never observed %s (eligible=%d, want %d)",
					what, r.EligibleNodes(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitEligible(0, "the unready node")
	dep.SetReady(true)
	waitEligible(1, "the node's recovery")
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("health loop did not stop on ctx cancel")
	}
}

// nodeStats returns the named node's counters.
func nodeStats(t *testing.T, r *Router, name string) NodeStats {
	t.Helper()
	for _, n := range r.Stats().Nodes {
		if n.Name == name {
			return n
		}
	}
	t.Fatalf("no node %q", name)
	return NodeStats{}
}

// TestRouterHedgeLoserAbandons: the primary a hedge win cancels is
// abandoned — with a threshold of one, a failure vote would open its
// breaker — and the hedge fires no sooner than the hedge delay.
func TestRouterHedgeLoserAbandons(t *testing.T) {
	const delay = 20 * time.Millisecond
	r, backends := newStubRouter(t, 2, Config{Replication: 2, HedgeMin: delay, HedgeMax: delay, Breaker: serving.BreakerConfig{Threshold: 1}})
	key := keyWithPrimary(t, r, "n0")
	var primaryStart, hedgeStart atomic.Int64
	backends[0].set(func(ctx context.Context) (Result, error) {
		primaryStart.Store(time.Now().UnixNano())
		<-ctx.Done()
		return Result{}, ctx.Err()
	})
	backends[1].set(func(ctx context.Context) (Result, error) {
		hedgeStart.Store(time.Now().UnixNano())
		return Result{Status: 200, Body: []byte("from-n1")}, nil
	})
	res, err := r.Do(context.Background(), Request{Key: key, Path: "/intent"})
	if err != nil || string(res.Body) != "from-n1" {
		t.Fatalf("Do = %q, %v; want the hedge's answer", res.Body, err)
	}
	if waited := time.Duration(hedgeStart.Load() - primaryStart.Load()); waited < delay {
		t.Fatalf("hedge started %v after the primary, before the %v hedge delay", waited, delay)
	}
	n0 := nodeStats(t, r, "n0")
	if n0.Failures != 0 || n0.BreakerState != serving.BreakerClosed {
		t.Fatalf("cancelled primary: failures=%d breaker=%v, want it abandoned", n0.Failures, n0.BreakerState)
	}
	if s := r.Stats(); s.Hedges != 1 || s.HedgeWins != 1 || s.Failovers != 0 {
		t.Fatalf("hedges=%d wins=%d failovers=%d, want 1/1/0", s.Hedges, s.HedgeWins, s.Failovers)
	}
}

// TestRouterHedgePrimaryWinsCancelsHedge: the primary answers while the
// hedge is in flight; the hedge is cancelled, is not a win, and
// abandons. The hedge node starts half-open, so its attempt holds the
// one probe slot: the slot coming free is the attempt concluding, and
// the breaker still half-open is it having voted neither way.
func TestRouterHedgePrimaryWinsCancelsHedge(t *testing.T) {
	clock := serving.NewFakeClock(time.Unix(1_700_000_000, 0))
	r, backends := newStubRouter(t, 2, Config{
		Replication: 2, HedgeMin: time.Millisecond, HedgeMax: time.Millisecond,
		Breaker: serving.BreakerConfig{Threshold: 1, Cooldown: 5 * time.Second, Probes: 1, Clock: clock},
	})
	key := keyWithPrimary(t, r, "n0")
	hedgeBrk := r.nodes[1].brk
	hedgeBrk.Allow()
	hedgeBrk.Failure()
	clock.Advance(6 * time.Second) // open and cooled down: the next call is the half-open probe

	hedgeRunning := make(chan struct{})
	backends[0].set(func(ctx context.Context) (Result, error) {
		<-hedgeRunning // answer only once the hedge is in flight
		return Result{Status: 200, Body: []byte("from-n0")}, nil
	})
	backends[1].set(func(ctx context.Context) (Result, error) {
		close(hedgeRunning)
		<-ctx.Done()
		return Result{}, ctx.Err()
	})
	res, err := r.Do(context.Background(), Request{Key: key, Path: "/intent"})
	if err != nil || string(res.Body) != "from-n0" {
		t.Fatalf("Do = %q, %v; want the primary's answer", res.Body, err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for !hedgeBrk.CanServe() {
		if time.Now().After(deadline) {
			st, _ := hedgeBrk.State()
			t.Fatalf("primary win did not end the hedge attempt (breaker %v, probe slot still held)", st)
		}
		time.Sleep(100 * time.Microsecond)
	}
	if st, _ := hedgeBrk.State(); st != serving.BreakerHalfOpen {
		t.Fatalf("hedge node's breaker = %v after its cancelled probe, want still half-open: a loser never votes", st)
	}
	if s := r.Stats(); s.Hedges != 1 || s.HedgeWins != 0 || nodeStats(t, r, "n1").Failures != 0 {
		t.Fatalf("hedges=%d wins=%d hedge-node failures=%d, want 1/0/0", s.Hedges, s.HedgeWins, nodeStats(t, r, "n1").Failures)
	}
}

// TestRouterHedgeBothFailFallsThrough: primary and hedge both fail once
// the hedge has fired; failover continues from the third node of the
// preference order, the same way every time.
func TestRouterHedgeBothFailFallsThrough(t *testing.T) {
	r, backends := newStubRouter(t, 3, Config{Replication: 2, HedgeMin: time.Millisecond, HedgeMax: time.Millisecond, Breaker: serving.BreakerConfig{Threshold: 1000}})
	key := keyWithPrimary(t, r, "n0")
	order := r.eligibleOrder(nil, key)
	hedgeFailed := make(chan struct{}, 1)
	backends[order[0]].set(func(ctx context.Context) (Result, error) {
		<-hedgeFailed // fail only after the hedge has run and failed
		return Result{}, errors.New("primary boom")
	})
	backends[order[1]].set(func(ctx context.Context) (Result, error) {
		hedgeFailed <- struct{}{}
		return Result{}, errors.New("hedge boom")
	})
	for i := 1; i <= 5; i++ {
		res, err := r.Do(context.Background(), Request{Key: key, Path: "/intent"})
		if err != nil || string(res.Body) != fmt.Sprintf("from-n%d", order[2]) {
			t.Fatalf("Do #%d = %q, %v; want failover to the third node n%d", i, res.Body, err, order[2])
		}
		if s := r.Stats(); s.Hedges != uint64(i) || s.HedgeWins != 0 || s.Failovers != uint64(i) {
			t.Fatalf("Do #%d: hedges=%d wins=%d failovers=%d, want %d/0/%d", i, s.Hedges, s.HedgeWins, s.Failovers, i, i)
		}
	}
	if got := backends[order[1]].calls.Load(); got != 5 {
		t.Fatalf("hedge node saw %d calls, want 5: failover must skip a node the race already tried", got)
	}
}

// TestRouterHedgeCallerCancel: the caller leaving returns its ctx.Err()
// at once, whether or not the hedge has fired, and nobody votes.
func TestRouterHedgeCallerCancel(t *testing.T) {
	for name, hedgeDelay := range map[string]time.Duration{"before the hedge": time.Hour, "after the hedge": time.Millisecond} {
		t.Run(name, func(t *testing.T) {
			r, backends := newStubRouter(t, 3, Config{Replication: 2, HedgeMin: hedgeDelay, HedgeMax: hedgeDelay, Breaker: serving.BreakerConfig{Threshold: 1}})
			var parked atomic.Int64
			for _, b := range backends {
				b.set(func(ctx context.Context) (Result, error) {
					parked.Add(1)
					<-ctx.Done()
					return Result{}, ctx.Err()
				})
			}
			want := int64(1)
			if hedgeDelay < time.Hour {
				want = 2
			}
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				for parked.Load() < want {
					time.Sleep(100 * time.Microsecond)
				}
				cancel()
			}()
			_, err := r.Do(ctx, Request{Key: "k", Path: "/intent"})
			if err != context.Canceled {
				t.Fatalf("err = %v, want the bare context.Canceled", err)
			}
			s := r.Stats()
			if s.Failovers != 0 {
				t.Fatalf("failovers = %d after the caller left, want 0", s.Failovers)
			}
			for _, n := range s.Nodes {
				if n.Failures != 0 || n.BreakerState != serving.BreakerClosed {
					t.Fatalf("node %s: failures=%d breaker=%v after the caller left, want abandoned attempts", n.Name, n.Failures, n.BreakerState)
				}
			}
		})
	}
}

// TestRouterHedgeConcurrent races many hedged requests (run under
// -race): stragglers, failures and clean answers mixed, so pooled races
// are reused while fired ones are still in flight.
func TestRouterHedgeConcurrent(t *testing.T) {
	r, backends := newStubRouter(t, 3, Config{Replication: 2, HedgeMin: 200 * time.Microsecond, HedgeMax: 200 * time.Microsecond, Breaker: serving.BreakerConfig{Threshold: 1 << 30}})
	var calls atomic.Int64
	for i, b := range backends {
		body := []byte(fmt.Sprintf("from-n%d", i))
		b.set(func(ctx context.Context) (Result, error) {
			switch n := calls.Add(1); {
			case n%7 == 0:
				return Result{}, errors.New("boom")
			case n%5 == 0:
				select {
				case <-ctx.Done():
					return Result{}, ctx.Err()
				case <-time.After(2 * time.Millisecond):
				}
			}
			return Result{Status: 200, Body: body}, nil
		})
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				res, err := r.Do(context.Background(), Request{Key: fmt.Sprintf("k-%d-%d", w, i), Path: "/intent"})
				if err == nil && !strings.HasPrefix(string(res.Body), "from-n") {
					t.Errorf("answer %q from no node", res.Body)
				}
			}
		}(w)
	}
	wg.Wait()
	if s := r.Stats(); s.Requests != 1600 || s.Hedges == 0 || s.HedgeWins == 0 {
		t.Fatalf("requests=%d hedges=%d wins=%d, want 1600 requests with hedges fired and won", s.Requests, s.Hedges, s.HedgeWins)
	}
}

// TestRouterDoAllocBudget pins the inline path: with a second replica
// and the hedge armed but never firing, a routed request allocates only
// its caller-cancel registration (context.AfterFunc: 2).
func TestRouterDoAllocBudget(t *testing.T) {
	r, _ := newStubRouter(t, 3, Config{Replication: 2})
	for _, nd := range r.nodes {
		for i := 0; i < 64; i++ {
			nd.hist.Observe(2) // warm: hedgeDelay walks every histogram
		}
	}
	body := []byte("ok")
	for _, nd := range r.nodes {
		nd.backend.(*stubBackend).set(func(ctx context.Context) (Result, error) {
			return Result{Status: 200, Body: body}, nil
		})
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := Request{Key: "camping", Path: "/intent", RawQuery: "q=camping"}
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := r.Do(ctx, req); err != nil {
			t.Fatal(err)
		}
	})
	if s := r.Stats(); s.Hedges != 0 {
		t.Fatalf("%d hedges fired; the budget is for the armed-but-idle path", s.Hedges)
	}
	budget := 2.0
	if raceEnabled {
		// sync.Pool drops a quarter of its Puts under the race detector,
		// and each drop costs the next request a new call (4 allocations).
		budget = 3
	}
	if allocs > budget {
		t.Fatalf("Router.Do allocates %v times per request, budget is %v", allocs, budget)
	}
	t.Logf("Router.Do: %v allocs/op", allocs)
}
