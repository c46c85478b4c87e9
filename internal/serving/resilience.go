package serving

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cosmo/internal/llm"
)

// BreakerState is the circuit breaker's position.
type BreakerState int32

// Breaker states. The numeric values are exported on /metrics as
// cosmo_breaker_state, so they are part of the metric contract:
// 0 closed (healthy), 1 open (failing fast), 2 half-open (probing).
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// String renders the state for logs and /readyz bodies.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("BreakerState(%d)", int32(s))
}

// ResilienceConfig tunes the Resilient responder wrapper. Zero values
// select the documented defaults; Seed feeds the deterministic backoff
// jitter (same seed, same call index, same attempt -> same jitter).
type ResilienceConfig struct {
	// CallTimeout bounds each responder attempt (default 1s; negative
	// disables the per-attempt timeout).
	CallTimeout time.Duration
	// MaxRetries is how many times a failed attempt is retried before
	// the call reports failure (default 2, i.e. up to 3 attempts).
	// Negative means no retries.
	MaxRetries int
	// BackoffBase is the delay before the first retry; each further
	// retry doubles it (default 10ms).
	BackoffBase time.Duration
	// BackoffMax caps the exponential backoff (default 1s).
	BackoffMax time.Duration
	// Seed drives the backoff jitter. Jitter is a pure function of
	// (Seed, call index, attempt) — see jitterFor — so a run is exactly
	// reproducible per the seeded-rand contract.
	Seed int64
	// Breaker configures the circuit breaker in front of the responder
	// (NewBreaker's defaults).
	Breaker BreakerConfig
}

func (c ResilienceConfig) withDefaults() ResilienceConfig {
	if c.CallTimeout == 0 {
		c.CallTimeout = time.Second
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 2
	} else if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 10 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = time.Second
	}
	return c
}

// ResilienceStats is a snapshot of the wrapper's counters, exported on
// /metrics as the cosmo_responder_* and cosmo_breaker_* lines.
type ResilienceStats struct {
	// Calls is the number of RespondContext calls admitted past the
	// breaker (each may span several attempts).
	Calls uint64
	// Failures counts failed attempts (errors, timeouts, panics).
	Failures uint64
	// Retries counts re-attempts after a failed attempt.
	Retries uint64
	// Timeouts counts attempts that exceeded CallTimeout.
	Timeouts uint64
	// Panics counts responder panics recovered and converted to errors.
	Panics uint64
	// BreakerRejects counts calls failed fast while the breaker was
	// open.
	BreakerRejects uint64
	// BreakerOpens counts closed/half-open -> open transitions.
	BreakerOpens uint64
	// BreakerState is the breaker's current position.
	BreakerState BreakerState
}

// resilienceReporter is implemented by responders that expose resilience
// counters; the Deployment surfaces them on /metrics and /readyz when
// its current responder implements it.
type resilienceReporter interface {
	ResilienceStats() ResilienceStats
}

// BreakerConfig configures a Breaker. Zero values select NewBreaker's
// defaults.
type BreakerConfig struct {
	// Threshold is how many consecutive failures trip the breaker open
	// (default 5; negative disables the breaker — it never opens).
	Threshold int
	// Cooldown is how long the breaker stays open before admitting a
	// half-open probe (default 5s).
	Cooldown time.Duration
	// Probes is how many consecutive probe successes close a half-open
	// breaker (default 2).
	Probes int
	// Clock times the open period; swap in a FakeClock for tests
	// (default RealClock).
	Clock Clock
}

// Breaker is a closed/open/half-open circuit breaker. Closed it counts
// consecutive failures; at threshold it opens and fails calls fast for
// the cooldown; then it admits one probe at a time (half-open), closing
// after enough consecutive probe successes and re-opening on any probe
// failure. Resilient keeps one in front of its responder and the
// cluster router keeps one per node, so breaker-open nodes drop out of
// replica sets. Every call admitted by Allow must be concluded by
// exactly one of Success, Failure or Abandon.
type Breaker struct {
	mu        sync.Mutex
	clock     Clock
	threshold int // <0: breaker disabled, never opens
	cooldown  time.Duration
	probes    int

	state          BreakerState
	consecFails    int
	probeInFlight  bool
	probeSuccesses int
	openedAt       time.Time
	opens          uint64
}

// NewBreaker builds a closed breaker; it is the one place breaker
// defaults are set.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.Threshold == 0 {
		cfg.Threshold = 5
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 5 * time.Second
	}
	if cfg.Probes <= 0 {
		cfg.Probes = 2
	}
	if cfg.Clock == nil {
		cfg.Clock = RealClock{}
	}
	return &Breaker{clock: cfg.Clock, threshold: cfg.Threshold, cooldown: cfg.Cooldown, probes: cfg.Probes}
}

// Allow reports whether a call may proceed. In the open state it flips
// to half-open once the cooldown has elapsed, admitting the caller as
// the probe; in half-open it admits one probe at a time. A caller that
// got true must later call Success, Failure or Abandon.
func (b *Breaker) Allow() bool {
	if b.threshold < 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerOpen:
		if b.clock.Now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = BreakerHalfOpen
		b.probeSuccesses = 0
		b.probeInFlight = true
		return true
	case BreakerHalfOpen:
		if b.probeInFlight {
			return false
		}
		b.probeInFlight = true
		return true
	}
	return true
}

// Success concludes an admitted call that succeeded.
func (b *Breaker) Success() {
	if b.threshold < 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		b.consecFails = 0
	case BreakerHalfOpen:
		b.probeInFlight = false
		b.probeSuccesses++
		if b.probeSuccesses >= b.probes {
			b.state = BreakerClosed
			b.consecFails = 0
		}
	}
}

// Failure concludes an admitted call that failed (for Resilient, after
// its retries were exhausted).
func (b *Breaker) Failure() {
	if b.threshold < 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		b.consecFails++
		if b.consecFails >= b.threshold {
			b.openLocked()
		}
	case BreakerHalfOpen:
		b.probeInFlight = false
		b.openLocked()
	}
}

func (b *Breaker) openLocked() {
	b.state = BreakerOpen
	b.openedAt = b.clock.Now()
	b.opens++
	b.consecFails = 0
}

// Abandon concludes an admitted call without counting it as success or
// failure — the caller was cancelled (e.g. it lost a hedged race) so
// its outcome says nothing about the backend's health. In half-open it
// frees the probe slot for the next caller.
func (b *Breaker) Abandon() {
	if b.threshold < 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen {
		b.probeInFlight = false
	}
}

// CanServe is the non-mutating view of Allow: would a call be admitted
// right now? Unlike Allow it neither flips open->half-open nor claims
// the probe slot, so eligibility scans (the cluster router's replica-set
// derivation) can consult it without perturbing breaker state.
func (b *Breaker) CanServe() bool {
	if b.threshold < 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerOpen:
		return b.clock.Now().Sub(b.openedAt) >= b.cooldown
	case BreakerHalfOpen:
		return !b.probeInFlight
	}
	return true
}

// State returns the breaker's current position and how many times it
// has opened.
func (b *Breaker) State() (BreakerState, uint64) {
	if b.threshold < 0 {
		return BreakerClosed, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.opens
}

// Resilient wraps a ContextResponder with per-attempt timeouts, bounded
// retries under seeded exponential backoff with jitter, panic recovery,
// and a circuit breaker. It is itself a ContextResponder, so it composes
// with any inner responder (including a faults.Injector in chaos tests).
type Resilient struct {
	inner ContextResponder
	cfg   ResilienceConfig
	brk   *Breaker

	calls          atomic.Uint64
	failures       atomic.Uint64
	retries        atomic.Uint64
	timeouts       atomic.Uint64
	panics         atomic.Uint64
	breakerRejects atomic.Uint64

	// sleep waits for the backoff duration, returning false if ctx was
	// cancelled first. Overridable in tests to capture the deterministic
	// backoff schedule without real sleeping.
	sleep func(ctx context.Context, d time.Duration) bool
}

// NewResilient wraps inner with the resilience layer.
func NewResilient(inner ContextResponder, cfg ResilienceConfig) *Resilient {
	cfg = cfg.withDefaults()
	return &Resilient{inner: inner, cfg: cfg, brk: NewBreaker(cfg.Breaker), sleep: sleepCtx}
}

// ResilienceStats snapshots the wrapper's counters.
func (r *Resilient) ResilienceStats() ResilienceStats {
	state, opens := r.brk.State()
	return ResilienceStats{
		Calls:          r.calls.Load(),
		Failures:       r.failures.Load(),
		Retries:        r.retries.Load(),
		Timeouts:       r.timeouts.Load(),
		Panics:         r.panics.Load(),
		BreakerRejects: r.breakerRejects.Load(),
		BreakerOpens:   opens,
		BreakerState:   state,
	}
}

// RespondContext runs one resilient call: fail fast if the breaker is
// open, otherwise attempt the inner responder up to 1+MaxRetries times
// with exponential backoff and deterministic jitter between attempts.
// The final outcome (not each attempt) feeds the breaker.
func (r *Resilient) RespondContext(ctx context.Context, query string) (Feature, error) {
	if !r.brk.Allow() {
		r.breakerRejects.Add(1)
		return Feature{}, ErrBreakerOpen
	}
	call := r.calls.Add(1) - 1
	var lastErr error
	for attempt := 0; attempt <= r.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			r.retries.Add(1)
			if !r.sleep(ctx, r.backoff(call, attempt)) {
				break // cancelled while backing off
			}
		}
		f, err := r.attempt(ctx, query)
		if err == nil {
			r.brk.Success()
			return f, nil
		}
		lastErr = err
		r.failures.Add(1)
		if ctx.Err() != nil {
			break // the caller's context is gone; retrying cannot help
		}
	}
	r.brk.Failure()
	return Feature{}, lastErr
}

// attempt runs the inner responder once under the per-attempt timeout,
// converting panics to ErrResponderPanic. The responder runs in its own
// goroutine so a non-cancellable hang costs this attempt its timeout
// instead of wedging the caller; a well-behaved inner responder observes
// the attempt context and returns promptly.
func (r *Resilient) attempt(ctx context.Context, query string) (Feature, error) {
	actx := ctx
	cancel := func() {}
	if r.cfg.CallTimeout > 0 {
		actx, cancel = context.WithTimeout(ctx, r.cfg.CallTimeout)
	}
	defer cancel()
	type outcome struct {
		f   Feature
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				r.panics.Add(1)
				ch <- outcome{err: fmt.Errorf("%w: %v", ErrResponderPanic, p)}
			}
		}()
		f, err := r.inner.RespondContext(actx, query)
		ch <- outcome{f, err}
	}()
	select {
	case o := <-ch:
		return o.f, o.err
	case <-actx.Done():
		r.timeouts.Add(1)
		return Feature{}, actx.Err()
	}
}

// backoff computes the delay before retry `attempt` of call `call`:
// BackoffBase doubled per attempt, capped at BackoffMax, scaled by a
// deterministic jitter factor in [0.5, 1.5).
func (r *Resilient) backoff(call uint64, attempt int) time.Duration {
	d := r.cfg.BackoffBase << (attempt - 1)
	if d > r.cfg.BackoffMax || d <= 0 {
		d = r.cfg.BackoffMax
	}
	return time.Duration(float64(d) * jitterFor(r.cfg.Seed, call, attempt))
}

// jitterFor derives the backoff jitter factor in [0.5, 1.5) as a pure
// function of (seed, call index, attempt) through the pipeline's
// per-index splitmix64 mix (llm.DeriveSeed), the attempt folded into the
// master seed, so retry schedules are reproducible without sharing a
// *rand.Rand across goroutines.
func jitterFor(seed int64, call uint64, attempt int) float64 {
	z := uint64(llm.DeriveSeed(seed+int64(0x6a09e667f3bcc909*uint64(attempt)), call))
	return 0.5 + float64(z>>11)/float64(1<<53)
}

// sleepCtx blocks for d or until ctx is done, reporting whether the full
// delay elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
