package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cosmo/internal/serving"
)

// ErrNoEligibleNodes is returned when every node is down, draining or
// breaker-open — the only condition under which the router itself
// reports unready.
var ErrNoEligibleNodes = errors.New("cluster: no eligible nodes")

// Config tunes the Router. Zero values select the documented defaults.
type Config struct {
	// Replication is the replica-set size per key: reads go to the
	// primary with a hedge to the next replica (default 2; 1 disables
	// hedging, capped at the node count).
	Replication int
	// VirtualNodes is the ring's per-node virtual point count (default
	// DefaultVirtualNodes).
	VirtualNodes int
	// AttemptTimeout bounds one node attempt (default 2s; negative
	// disables).
	AttemptTimeout time.Duration
	// HedgeQuantile is the per-node latency quantile the hedge delay is
	// derived from (default 0.99).
	HedgeQuantile float64
	// HedgeMin / HedgeMax clamp the derived hedge delay (defaults 1ms /
	// 250ms). With no node histogram warm yet the delay is HedgeMax —
	// hedge conservatively until there is evidence.
	HedgeMin time.Duration
	HedgeMax time.Duration
	// MinHedgeSamples is how many successful attempts a node's
	// histogram needs before it participates in hedge-delay derivation
	// (default 32).
	MinHedgeSamples int64
	// Breaker configures each node's circuit breaker (router defaults
	// 2s cooldown / 1 probe; serving.NewBreaker fills in the rest, and
	// tests swap a FakeClock into Breaker.Clock).
	Breaker serving.BreakerConfig
	// ProbeInterval / ProbeTimeout drive the active health loop
	// (defaults 1s / 500ms).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
}

func (c Config) withDefaults() Config {
	if c.Replication <= 0 {
		c.Replication = 2
	}
	if c.VirtualNodes <= 0 {
		c.VirtualNodes = DefaultVirtualNodes
	}
	if c.AttemptTimeout == 0 {
		c.AttemptTimeout = 2 * time.Second
	}
	if c.HedgeQuantile <= 0 || c.HedgeQuantile >= 1 {
		c.HedgeQuantile = 0.99
	}
	if c.HedgeMin <= 0 {
		c.HedgeMin = time.Millisecond
	}
	if c.HedgeMax <= 0 {
		c.HedgeMax = 250 * time.Millisecond
	}
	if c.HedgeMax < c.HedgeMin {
		c.HedgeMax = c.HedgeMin
	}
	if c.MinHedgeSamples <= 0 {
		c.MinHedgeSamples = 32
	}
	if c.Breaker.Cooldown <= 0 {
		c.Breaker.Cooldown = 2 * time.Second
	}
	if c.Breaker.Probes <= 0 {
		c.Breaker.Probes = 1
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 500 * time.Millisecond
	}
	return c
}

// NodeSpec names one backend for the router.
type NodeSpec struct {
	Name    string
	Backend Backend
}

// node is the router's per-node state: transport, breaker, health and
// the atomic latency histogram the hedge delay derives from.
type node struct {
	name    string
	backend Backend
	brk     *serving.Breaker
	hist    *serving.Histogram // successful-attempt latency (ms)
	health  atomic.Int32       // Health

	primaries  atomic.Uint64 // attempts sent as a key's primary
	hedges     atomic.Uint64 // hedge attempts sent here
	hedgeWins  atomic.Uint64 // hedges that returned first with success
	failovers  atomic.Uint64 // attempts after an earlier replica failed
	exclusions atomic.Uint64 // replica-set skips (down/draining/breaker)
	successes  atomic.Uint64
	failures   atomic.Uint64
}

// Request is one routed query: Key drives replica placement (the q= or
// id= value), Path and RawQuery are proxied verbatim.
type Request struct {
	Key      string
	Path     string
	RawQuery string
}

// Router fronts a fixed node set with consistent-hash routing,
// replication, hedged reads and breaker-driven failover.
type Router struct {
	cfg   Config
	nodes []*node
	ring  *Ring

	requests  atomic.Uint64
	errors    atomic.Uint64
	hedges    atomic.Uint64
	hedgeWins atomic.Uint64
	failovers atomic.Uint64
	noReplica atomic.Uint64
	e2e       *serving.Histogram // end-to-end routed latency (ms)
	races     sync.Pool          // *hedgeRace, each with its stopped timer
}

// New builds a router over the named backends. Node names are the ring
// identity: keep them stable across restarts or every key remaps.
func New(specs []NodeSpec, cfg Config) (*Router, error) {
	if len(specs) == 0 {
		return nil, errors.New("cluster: at least one node required")
	}
	cfg = cfg.withDefaults()
	if cfg.Replication > len(specs) {
		cfg.Replication = len(specs)
	}
	names := make([]string, len(specs))
	nodes := make([]*node, len(specs))
	for i, s := range specs {
		if s.Name == "" || s.Backend == nil {
			return nil, fmt.Errorf("cluster: node %d: name and backend required", i)
		}
		names[i] = s.Name
		nodes[i] = &node{
			name:    s.Name,
			backend: s.Backend,
			brk:     serving.NewBreaker(cfg.Breaker),
			hist:    serving.NewHistogram(nil),
		}
	}
	for i, a := range names {
		for j := i + 1; j < len(names); j++ {
			if names[j] == a {
				return nil, fmt.Errorf("cluster: duplicate node name %q", a)
			}
		}
	}
	r := &Router{
		cfg:   cfg,
		nodes: nodes,
		ring:  NewRing(names, cfg.VirtualNodes),
		e2e:   serving.NewHistogram(nil),
	}
	r.races.New = func() any { return r.newHedgeRace() }
	return r, nil
}

// NumNodes returns the configured node count.
func (r *Router) NumNodes() int { return len(r.nodes) }

// EligibleNodes counts nodes currently admissible to replica sets:
// probed ready and breaker willing to serve.
func (r *Router) EligibleNodes() int {
	n := 0
	for _, nd := range r.nodes {
		if Health(nd.health.Load()) == HealthReady && nd.brk.CanServe() {
			n++
		}
	}
	return n
}

// eligibleOrder appends to dst the key's full deterministic preference
// order over currently eligible nodes (ring walk order). Excluded nodes
// are counted per node.
func (r *Router) eligibleOrder(dst []int, key string) []int {
	return r.ring.Walk(dst, key, 0, func(i int) bool {
		nd := r.nodes[i]
		if Health(nd.health.Load()) != HealthReady || !nd.brk.CanServe() {
			nd.exclusions.Add(1)
			return false
		}
		return true
	})
}

// ReplicaSet reports the key's current replica set by node name —
// primary first. Diagnostic (the chaos tests assert deterministic
// failover through it); the serving path uses eligibleOrder directly.
func (r *Router) ReplicaSet(key string) []string {
	order := r.eligibleOrder(nil, key)
	if len(order) > r.cfg.Replication {
		order = order[:r.cfg.Replication]
	}
	names := make([]string, len(order))
	for i, idx := range order {
		names[i] = r.nodes[idx].name
	}
	return names
}

// hedgeDelay derives the current hedge delay: the minimum across
// eligible warm nodes of their HedgeQuantile latency, clamped to
// [HedgeMin, HedgeMax]. Taking the minimum — the best achievable
// quantile in the cluster — rather than an aggregate keeps one
// straggler node from inflating the delay that is supposed to protect
// against it. With no warm node the delay is HedgeMax.
func (r *Router) hedgeDelay() time.Duration {
	best := r.cfg.HedgeMax
	found := false
	for _, nd := range r.nodes {
		if Health(nd.health.Load()) != HealthReady {
			continue
		}
		if nd.hist.Count() < r.cfg.MinHedgeSamples {
			continue
		}
		q := time.Duration(nd.hist.Quantile(r.cfg.HedgeQuantile) * float64(time.Millisecond))
		if !found || q < best {
			best, found = q, true
		}
	}
	if !found {
		return r.cfg.HedgeMax
	}
	if best < r.cfg.HedgeMin {
		return r.cfg.HedgeMin
	}
	if best > r.cfg.HedgeMax {
		return r.cfg.HedgeMax
	}
	return best
}

// Do routes one request: primary attempt with a hedged second replica,
// then deterministic sequential failover through the remaining eligible
// nodes. First success wins and cancels the loser; an error is returned
// only when every eligible node failed (or none exists).
func (r *Router) Do(ctx context.Context, req Request) (Result, error) {
	r.requests.Add(1)
	start := time.Now()
	res, err := r.route(ctx, req)
	if err != nil {
		r.errors.Add(1)
		return res, err
	}
	r.e2e.Observe(float64(time.Since(start)) / float64(time.Millisecond))
	return res, nil
}

func (r *Router) route(ctx context.Context, req Request) (Result, error) {
	var buf [16]int // the preference order stays on the stack for rings this small
	order := r.eligibleOrder(buf[:0], req.Key)
	if len(order) == 0 {
		r.noReplica.Add(1)
		return Result{}, ErrNoEligibleNodes
	}

	// Primary phase, on this goroutine; with a second replica, raced
	// against a hedge once the hedge delay has passed.
	primary := r.nodes[order[0]]
	primary.primaries.Add(1)
	var (
		res    Result
		err    error
		hedged bool
	)
	if r.cfg.Replication > 1 && len(order) > 1 {
		res, hedged, err = r.hedgedAttempt(ctx, primary, r.nodes[order[1]], req)
	} else {
		actx, cancel := r.attemptContext(ctx)
		res, err = r.attempt(actx, primary, req)
		cancel()
	}
	if err == nil {
		return res, nil
	}
	if cerr := ctx.Err(); cerr != nil {
		return Result{}, cerr
	}

	// Both racers (or the lone primary) failed: deterministic
	// sequential failover through the rest of the preference order.
	next := 1
	if hedged {
		next = 2
	}
	for _, idx := range order[next:] {
		nd := r.nodes[idx]
		nd.failovers.Add(1)
		r.failovers.Add(1)
		actx, cancel := r.attemptContext(ctx)
		res, aerr := r.attempt(actx, nd, req)
		cancel()
		if aerr == nil {
			return res, nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return Result{}, cerr
		}
		err = aerr
	}
	return Result{}, fmt.Errorf("cluster: all %d eligible replicas failed for key %q: %w",
		len(order), req.Key, err)
}

// hedgeRace is what the calling goroutine, which runs the primary
// attempt itself, shares with the hedge: a timer armed for the hedge
// delay whose function — on the timer's own goroutine, which exists
// only if the timer fires — is the hedge attempt. Races are pooled with
// their timers; one goes back to the pool only if its timer was stopped
// before firing, so a pooled race has no goroutine that can touch it.
type hedgeRace struct {
	r     *Router
	timer *time.Timer // runs run

	// Set by the caller before the timer is armed.
	ctx           context.Context
	node          *node // the hedge target
	req           Request
	cancelPrimary context.CancelFunc

	mu          sync.Mutex
	settled     bool               // a winner exists; whoever finishes later lost
	cancelHedge context.CancelFunc // the running hedge attempt's
	done        sync.WaitGroup     // run returned
	res         Result             // run's outcome, read after done
	err         error
}

func (r *Router) newHedgeRace() *hedgeRace {
	h := &hedgeRace{r: r}
	h.timer = time.AfterFunc(time.Hour, h.run)
	h.timer.Stop()
	return h
}

// hedgedAttempt runs the primary attempt with a hedge armed at
// hedgeDelay() from now. First success wins and cancels the other
// attempt. hedged reports whether the hedge node was tried, so the
// caller's failover skips it.
func (r *Router) hedgedAttempt(ctx context.Context, primary, hedge *node, req Request) (res Result, hedged bool, err error) {
	pctx, pcancel := r.attemptContext(ctx)
	defer pcancel()
	h := r.races.Get().(*hedgeRace)
	h.ctx, h.node, h.req, h.cancelPrimary = ctx, hedge, req, pcancel
	h.done.Add(1)
	h.timer.Reset(r.hedgeDelay())

	res, err = r.attempt(pctx, primary, req)
	if h.timer.Stop() {
		// The common case: the hedge never started.
		h.done.Done()
		h.ctx, h.node, h.req, h.cancelPrimary = nil, nil, Request{}, nil
		r.races.Put(h)
		return res, false, err
	}

	if err == nil && h.primaryWon() {
		return res, true, nil
	}
	// The primary failed, or the hedge won first and cancelled it: the
	// hedge's outcome is the race's. Its context ends with the caller's.
	h.done.Wait()
	return h.res, true, h.err
}

// run is the hedge attempt, on the fired timer's goroutine.
func (h *hedgeRace) run() {
	defer h.done.Done()
	hctx, cancel := h.r.attemptContext(h.ctx)
	defer cancel()
	if !h.hedgeStarts(cancel) {
		return // the primary answered between the timer firing and now
	}
	h.node.hedges.Add(1)
	h.r.hedges.Add(1)
	res, err := h.r.attempt(hctx, h.node, h.req)
	h.hedgeDone(res, err)
}

// primaryWon settles the race for the primary's answer and stops a
// running hedge; false means the hedge had already won.
func (h *hedgeRace) primaryWon() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.settled {
		return false
	}
	h.settled = true
	if h.cancelHedge != nil {
		h.cancelHedge()
	}
	return true
}

// hedgeStarts registers the hedge attempt's cancel func; false means
// the primary had already won.
func (h *hedgeRace) hedgeStarts(cancel context.CancelFunc) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.settled {
		return false
	}
	h.cancelHedge = cancel
	return true
}

// hedgeDone records the hedge's outcome and, if it is the first
// success, settles the race for it and stops the primary.
func (h *hedgeRace) hedgeDone(res Result, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.res, h.err = res, err
	if err == nil && !h.settled {
		h.settled = true
		h.r.hedgeWins.Add(1)
		h.node.hedgeWins.Add(1)
		h.cancelPrimary()
	}
}

// errAttemptTimeout is the cancellation cause of an attempt that ran
// out its own AttemptTimeout — the one way an attempt's context ends
// that is the node's fault.
var errAttemptTimeout = errors.New("cluster: attempt timed out")

// attemptContext derives the one context an attempt runs under: its
// deadline is the AttemptTimeout, and its cancel func is what a hedge
// win calls to stop the loser.
func (r *Router) attemptContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if r.cfg.AttemptTimeout > 0 {
		return context.WithTimeoutCause(ctx, r.cfg.AttemptTimeout, errAttemptTimeout)
	}
	return context.WithCancel(ctx)
}

// attempt runs one call against a node under actx (see attemptContext),
// feeding the outcome to the node's breaker and (on success) its
// latency histogram. A call cancelled from above — the hedged race was
// already won, or the client left or ran out its own deadline — is
// abandoned: it says nothing about node health, so it feeds neither
// breaker quorum.
func (r *Router) attempt(actx context.Context, nd *node, req Request) (Result, error) {
	if !nd.brk.Allow() {
		// Lost a probe-slot race since the eligibility scan; treat as a
		// routing miss, not a node failure.
		return Result{}, fmt.Errorf("cluster: node %s breaker rejected the call", nd.name)
	}
	start := time.Now()
	res, err := nd.backend.Do(actx, req.Path, req.RawQuery)
	if err != nil {
		if actx.Err() != nil && !errors.Is(context.Cause(actx), errAttemptTimeout) {
			nd.brk.Abandon()
			return Result{}, err
		}
		nd.failures.Add(1)
		nd.brk.Failure()
		return Result{}, fmt.Errorf("cluster: node %s: %w", nd.name, err)
	}
	if res.Status >= 500 {
		nd.failures.Add(1)
		nd.brk.Failure()
		return Result{}, fmt.Errorf("cluster: node %s answered %d", nd.name, res.Status)
	}
	nd.successes.Add(1)
	nd.brk.Success()
	nd.hist.Observe(float64(time.Since(start)) / float64(time.Millisecond))
	return res, nil
}

// CheckHealth probes every node once (the active half of health; the
// passive half is per-attempt breaker accounting). Deterministic entry
// point for tests; the production loop is StartHealthLoop.
func (r *Router) CheckHealth(ctx context.Context) {
	for _, nd := range r.nodes {
		hctx, cancel := context.WithTimeout(ctx, r.cfg.ProbeTimeout)
		h := nd.backend.Check(hctx)
		cancel()
		nd.health.Store(int32(h))
	}
}

// StartHealthLoop probes all nodes every ProbeInterval until ctx is
// done. The returned channel closes once the loop has stopped.
func (r *Router) StartHealthLoop(ctx context.Context) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		ticker := time.NewTicker(r.cfg.ProbeInterval)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				r.CheckHealth(ctx)
			}
		}
	}()
	return done
}
