// Package faults is a seeded, deterministic fault injector for chaos
// testing the serving stack. An Injector wraps any
// serving.ContextResponder and, per call, rolls one of: an injected
// error, a latency spike, a hang that honors context cancellation, a
// panic, or clean passthrough. The roll is a pure function of
// (seed, call index) — the same splitmix64 derivation the resilience
// layer uses for backoff jitter — so a chaos run is exactly
// reproducible: same seed, same call order, same faults. No global
// math/rand state is touched (seeded-rand lint contract) and no wall
// clock is read (wallclock lint contract; the latency spike uses a
// timer, not time.Now).
package faults

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"cosmo/internal/llm"
	"cosmo/internal/serving"
)

// ErrInjected is the error returned by injected failures, so tests and
// callers can distinguish chaos from organic responder errors.
var ErrInjected = errors.New("faults: injected failure")

// Config sets per-call fault probabilities. Rates are clamped to [0, 1]
// and applied in priority order — panic, hang, latency, error — from a
// single roll, so their sum (capped at 1) is the total fault rate.
type Config struct {
	// Seed drives the deterministic per-call roll.
	Seed int64
	// ErrorRate is the probability a call fails immediately with
	// ErrInjected.
	ErrorRate float64
	// LatencyRate is the probability a call is delayed by Latency
	// before passing through (the call still succeeds — slow, not
	// broken — which is how it exercises caller timeouts).
	LatencyRate float64
	// Latency is the injected delay for latency-spike calls (default
	// 50ms when a LatencyRate is set).
	Latency time.Duration
	// HangRate is the probability a call blocks until its context is
	// cancelled, simulating a wedged backend. Callers must bound calls
	// with a context deadline (the serving resilience layer does).
	HangRate float64
	// PanicRate is the probability a call panics, exercising recover
	// paths.
	PanicRate float64
}

func clamp01(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

func (c Config) withDefaults() Config {
	c.ErrorRate = clamp01(c.ErrorRate)
	c.LatencyRate = clamp01(c.LatencyRate)
	c.HangRate = clamp01(c.HangRate)
	c.PanicRate = clamp01(c.PanicRate)
	if c.Latency <= 0 {
		c.Latency = 50 * time.Millisecond
	}
	return c
}

// Stats counts injected faults by kind.
type Stats struct {
	Calls     uint64 // rolls performed (enabled calls only)
	Errors    uint64
	Latencies uint64
	Hangs     uint64
	Panics    uint64
	Clean     uint64
}

// Injector decides, per call, whether to inject a fault. Safe for
// concurrent use; the call counter is atomic and each roll is pure.
type Injector struct {
	cfg     Config
	enabled atomic.Bool
	calls   atomic.Uint64

	errors    atomic.Uint64
	latencies atomic.Uint64
	hangs     atomic.Uint64
	panics    atomic.Uint64
	clean     atomic.Uint64
}

// New builds an enabled injector.
func New(cfg Config) *Injector {
	i := &Injector{cfg: cfg.withDefaults()}
	i.enabled.Store(true)
	return i
}

// SetEnabled toggles injection; a disabled injector passes every call
// through without consuming a roll, so chaos episodes can be bracketed
// mid-run without perturbing the deterministic sequence.
func (i *Injector) SetEnabled(on bool) { i.enabled.Store(on) }

// Enabled reports whether faults are being injected.
func (i *Injector) Enabled() bool { return i.enabled.Load() }

// Stats snapshots the fault counters.
func (i *Injector) Stats() Stats {
	return Stats{
		Calls:     i.calls.Load(),
		Errors:    i.errors.Load(),
		Latencies: i.latencies.Load(),
		Hangs:     i.hangs.Load(),
		Panics:    i.panics.Load(),
		Clean:     i.clean.Load(),
	}
}

// roll derives a uniform value in [0, 1) for call index n from
// llm.DeriveSeed's splitmix64 mix, as the resilience layer's jitter does.
func roll(seed int64, n uint64) float64 {
	return float64(uint64(llm.DeriveSeed(seed, n))>>11) / float64(1<<53)
}

// Inject performs one fault decision: it returns nil for passthrough,
// ErrInjected for an injected error, blocks until ctx is done for a
// hang (returning ctx.Err()), sleeps for a latency spike (then returns
// nil), or panics. Callers invoke it before their real work.
func (i *Injector) Inject(ctx context.Context) error {
	if !i.enabled.Load() {
		return nil
	}
	u := roll(i.cfg.Seed, i.calls.Add(1)-1)
	switch {
	case u < i.cfg.PanicRate:
		i.panics.Add(1)
		panic(ErrInjected)
	case u < i.cfg.PanicRate+i.cfg.HangRate:
		i.hangs.Add(1)
		<-ctx.Done()
		return ctx.Err()
	case u < i.cfg.PanicRate+i.cfg.HangRate+i.cfg.LatencyRate:
		i.latencies.Add(1)
		t := time.NewTimer(i.cfg.Latency)
		defer t.Stop()
		select {
		case <-t.C:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	case u < i.cfg.PanicRate+i.cfg.HangRate+i.cfg.LatencyRate+i.cfg.ErrorRate:
		i.errors.Add(1)
		return ErrInjected
	}
	i.clean.Add(1)
	return nil
}

// faultyResponder interposes an Injector in front of a responder.
type faultyResponder struct {
	inner serving.ContextResponder
	inj   *Injector
}

func (f *faultyResponder) RespondContext(ctx context.Context, query string) (serving.Feature, error) {
	if err := f.inj.Inject(ctx); err != nil {
		return serving.Feature{}, err
	}
	return f.inner.RespondContext(ctx, query)
}

// Wrap interposes the injector in front of inner: each call first runs
// one fault decision, and only clean or latency-spiked calls reach the
// inner responder. Wrap composes under serving.NewResilient, which is
// exactly how the chaos tests (and cosmo-serve's -fault-rate mode)
// assemble the stack: Resilient(faults.Wrap(model)).
func Wrap(inner serving.ContextResponder, inj *Injector) serving.ContextResponder {
	return &faultyResponder{inner: inner, inj: inj}
}

// Sequence is a deterministic boolean stream for client-side chaos
// (cosmo-loadgen aborts requests mid-flight at a seeded rate). Each
// Next() consumes one roll.
type Sequence struct {
	seed int64
	rate float64
	n    atomic.Uint64
}

// NewSequence builds a sequence firing true at the given rate.
func NewSequence(seed int64, rate float64) *Sequence {
	return &Sequence{seed: seed, rate: clamp01(rate)}
}

// Next reports whether the next event should be injected.
func (s *Sequence) Next() bool {
	return roll(s.seed, s.n.Add(1)-1) < s.rate
}
