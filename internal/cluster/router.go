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
	calls     sync.Pool          // *call, each with its stopped hedge timer
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
	r.calls.New = func() any { return r.newCall() }
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
	c := r.startCall(ctx, req)
	defer r.endCall(c)

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
		res, hedged, err = c.hedgedAttempt(primary, r.nodes[order[1]])
	} else {
		res, err = r.attempt(&c.primary, primary)
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
		res, aerr := r.attempt(&c.primary, nd)
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

// call is one routed request: its two attempts and the hedge race
// between them. The calling goroutine runs the primary attempt and any
// failover in primary; the hedge runs in hedge, as the function of a
// timer armed for the hedge delay, on the timer's own goroutine — which
// exists only if the timer fires. Calls are pooled with their timers
// and attempts; one goes back to the pool only when no goroutine but
// the caller's can still touch it: the hedge timer was stopped unfired
// and the caller-cancel callback was unregistered before it ran.
type call struct {
	r     *Router
	timer *time.Timer // runs runHedge
	leave func()      // callerLeft, bound once for context.AfterFunc

	// Set by startCall for one request.
	ctx   context.Context // the caller's
	req   Request
	stop  func() bool // unregisters leave; nil when ctx cannot end
	hnode *node       // the hedge target
	held  bool        // a goroutine besides the caller's may hold the call

	mu      sync.Mutex // guards the fields below and both attempts
	left    error      // the caller's ctx.Err() once it ended
	settled bool       // a winner exists; whoever finishes later lost
	primary attempt
	hedge   attempt
	done    sync.WaitGroup // runHedge returned
	res     Result         // runHedge's outcome, read after done
	err     error
}

func (r *Router) newCall() *call {
	c := &call{r: r}
	c.primary.c, c.hedge.c = c, c
	c.leave = c.callerLeft
	c.timer = time.AfterFunc(time.Hour, c.runHedge)
	c.timer.Stop()
	return c
}

// startCall takes a call from the pool for one request. The caller's
// cancellation is observed here, once per request: when ctx ends,
// callerLeft ends whichever attempt is live and every attempt started
// after.
func (r *Router) startCall(ctx context.Context, req Request) *call {
	c := r.calls.Get().(*call)
	c.ctx, c.req = ctx, req
	if ctx.Done() != nil {
		c.stop = context.AfterFunc(ctx, c.leave)
	}
	return c
}

func (r *Router) endCall(c *call) {
	if c.stop != nil && !c.stop() {
		c.held = true // callerLeft ran or is running
	}
	if c.held {
		return
	}
	c.ctx, c.req, c.stop, c.hnode = nil, Request{}, nil, nil
	r.calls.Put(c)
}

// callerLeft runs on context.AfterFunc's goroutine when the caller's
// ctx ends.
func (c *call) callerLeft() {
	err := c.ctx.Err()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.left = err
	c.primary.cancelLocked(err)
	c.hedge.cancelLocked(err)
}

// hedgedAttempt runs the primary attempt with a hedge armed at
// hedgeDelay() from now. First success wins and cancels the other
// attempt. hedged reports whether the hedge node was tried, so the
// caller's failover skips it.
func (c *call) hedgedAttempt(primary, hedge *node) (res Result, hedged bool, err error) {
	c.hnode = hedge
	c.done.Add(1)
	c.timer.Reset(c.r.hedgeDelay())

	res, err = c.r.attempt(&c.primary, primary)
	if c.timer.Stop() {
		// The common case: the hedge never started.
		c.done.Done()
		return res, false, err
	}
	c.held = true
	if err == nil && c.primaryWon() {
		return res, true, nil
	}
	// The primary failed, or the hedge won first and cancelled it: the
	// hedge's outcome is the race's. Its attempt ends with the caller's.
	c.done.Wait()
	return c.res, true, c.err
}

// runHedge is the hedge attempt, on the fired timer's goroutine.
func (c *call) runHedge() {
	defer c.done.Done()
	if !c.hedgeStarts() {
		return // the primary answered between the timer firing and now
	}
	c.hnode.hedges.Add(1)
	c.r.hedges.Add(1)
	res, err := c.r.attempt(&c.hedge, c.hnode)
	c.hedgeDone(res, err)
}

// primaryWon settles the race for the primary's answer and stops a
// running hedge; false means the hedge had already won.
func (c *call) primaryWon() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.settled {
		return false
	}
	c.settled = true
	c.hedge.cancelLocked(context.Canceled)
	return true
}

// hedgeStarts reports whether the race is still open. A hedge attempt
// that starts after the primary settles it begins cancelled (start).
func (c *call) hedgeStarts() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return !c.settled
}

// hedgeDone records the hedge's outcome and, if it is the first
// success, settles the race for it and stops the primary.
func (c *call) hedgeDone(res Result, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.res, c.err = res, err
	if err == nil && !c.settled {
		c.settled = true
		c.r.hedgeWins.Add(1)
		c.hnode.hedgeWins.Add(1)
		c.primary.cancelLocked(context.Canceled)
	}
}

// errAttemptTimeout is the cause of an attempt that ran out its own
// AttemptTimeout — the one way an attempt ends early that is the node's
// fault.
var errAttemptTimeout = errors.New("cluster: attempt timed out")

// attempt is the context.Context one node attempt runs under: the ctx
// its backend's Do receives. It lives in its call, so it costs no
// allocation. Its deadline is the caller's or start + AttemptTimeout,
// whichever is earlier; a Done channel and the timer that closes it at
// that deadline are made only for a backend that calls Done
// (HTTPBackend arms the deadline on its connection instead, and
// registers its interrupt through armAbort). It ends early — Err turns
// non-nil, Done closes, the armed interrupt runs — when its own timeout
// passes (cause errAttemptTimeout: a failure vote), or from above: the
// race it was in is won by the other attempt, the caller leaves, or the
// caller's deadline passes (abandon). A backend must not keep it past
// its Do.
type attempt struct {
	c *call
	// Guarded by c.mu.
	deadline time.Time     // zero: none
	own      bool          // deadline is the attempt's own AttemptTimeout
	live     bool          // between start and end
	cause    error         // what ended it early; nil while it may run
	done     chan struct{} // made by the first Done
	timer    *time.Timer   // runs expire; made by the first Done with a deadline
	abort    func()        // armed by the backend while it waits on the node
}

var _ context.Context = (*attempt)(nil)

// start begins the attempt at now. It begins already ended if the
// caller has left or the race it would join is settled.
func (a *attempt) start(now time.Time, timeout time.Duration) {
	c := a.c
	c.mu.Lock()
	defer c.mu.Unlock()
	a.live, a.deadline, a.own = true, time.Time{}, false
	if timeout > 0 {
		a.deadline, a.own = now.Add(timeout), true
	}
	if d, ok := c.ctx.Deadline(); ok && (a.deadline.IsZero() || d.Before(a.deadline)) {
		a.deadline, a.own = d, false
	}
	switch {
	case c.left != nil:
		a.cancelLocked(c.left)
	case c.settled:
		a.cancelLocked(context.Canceled)
	}
}

// end closes the attempt and returns its cause: nil unless it ended
// early. For a failed call (failed) it also settles a deadline that
// passed unobserved and a caller that left before callerLeft ran.
func (a *attempt) end(failed bool) (cause error) {
	c := a.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if failed && a.passed() {
		a.cancelLocked(a.timeoutCause())
	}
	cause = a.cause
	if a.timer != nil {
		a.timer.Stop()
	}
	if a.done != nil && cause == nil {
		close(a.done) // release anything still waiting on it
	}
	a.live, a.cause, a.done, a.abort = false, nil, nil, nil
	if failed && cause == nil {
		select {
		case <-c.ctx.Done():
			cause = c.ctx.Err()
		default:
		}
	}
	return cause
}

// cancelLocked ends the attempt early, if it is running and has not
// ended yet. The caller holds c.mu.
func (a *attempt) cancelLocked(cause error) {
	if !a.live || a.cause != nil {
		return
	}
	a.cause = cause
	if a.done != nil {
		close(a.done)
	}
	if a.abort != nil {
		a.abort()
		a.abort = nil
	}
}

// passed reports whether the deadline has passed. The caller holds c.mu.
func (a *attempt) passed() bool {
	return !a.deadline.IsZero() && !time.Now().Before(a.deadline)
}

func (a *attempt) timeoutCause() error {
	if a.own {
		return errAttemptTimeout
	}
	return context.DeadlineExceeded
}

// expire is the deadline timer's function. A timer left over from an
// earlier attempt in the same call finds the deadline not yet passed.
func (a *attempt) expire() {
	a.c.mu.Lock()
	defer a.c.mu.Unlock()
	if a.passed() {
		a.cancelLocked(a.timeoutCause())
	}
}

// armAbort registers f to run when the attempt ends early, at once if
// it already has.
func (a *attempt) armAbort(f func()) {
	a.c.mu.Lock()
	defer a.c.mu.Unlock()
	if a.cause != nil {
		f()
		return
	}
	a.abort = f
}

// disarmAbort unregisters armAbort's f; once it returns, f has run or
// never will.
func (a *attempt) disarmAbort() {
	a.c.mu.Lock()
	defer a.c.mu.Unlock()
	a.abort = nil
}

// Deadline implements context.Context.
func (a *attempt) Deadline() (time.Time, bool) {
	a.c.mu.Lock()
	defer a.c.mu.Unlock()
	return a.deadline, !a.deadline.IsZero()
}

// Done implements context.Context; the channel and, with a deadline,
// its timer are made on the first call.
func (a *attempt) Done() <-chan struct{} {
	a.c.mu.Lock()
	defer a.c.mu.Unlock()
	if a.done == nil {
		a.done = make(chan struct{})
		switch {
		case a.cause != nil:
			close(a.done)
		case a.deadline.IsZero():
		case a.timer == nil:
			a.timer = time.AfterFunc(time.Until(a.deadline), a.expire)
		default:
			a.timer.Reset(time.Until(a.deadline))
		}
	}
	return a.done
}

// Err implements context.Context.
func (a *attempt) Err() error {
	switch cause := a.settle(); {
	case errors.Is(cause, errAttemptTimeout):
		return context.DeadlineExceeded
	case cause != nil:
		return cause
	}
	select {
	case <-a.c.ctx.Done(): // callerLeft has yet to run
		return a.c.ctx.Err()
	default:
		return nil
	}
}

// settle ends the attempt if its deadline has passed and returns its
// cause.
func (a *attempt) settle() error {
	a.c.mu.Lock()
	defer a.c.mu.Unlock()
	if a.passed() {
		a.cancelLocked(a.timeoutCause())
	}
	return a.cause
}

// Value implements context.Context with the caller's values.
func (a *attempt) Value(key any) any { return a.c.ctx.Value(key) }

// attempt runs one call against a node under a, feeding the outcome to
// the node's breaker and (on success) its latency histogram. A call
// ended from above — the hedged race was already won, or the client
// left or ran out its own deadline — is abandoned: it says nothing
// about node health, so it feeds neither breaker quorum.
func (r *Router) attempt(a *attempt, nd *node) (Result, error) {
	if !nd.brk.Allow() {
		// Lost a probe-slot race since the eligibility scan; treat as a
		// routing miss, not a node failure.
		return Result{}, fmt.Errorf("cluster: node %s breaker rejected the call", nd.name)
	}
	start := time.Now()
	a.start(start, r.cfg.AttemptTimeout)
	res, err := nd.backend.Do(a, a.c.req.Path, a.c.req.RawQuery)
	cause := a.end(err != nil)
	if err != nil {
		if cause != nil && !errors.Is(cause, errAttemptTimeout) {
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
