package serving

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

// flakyResponder fails until the remaining counter hits zero, then
// succeeds. Safe for concurrent use.
type flakyResponder struct {
	mu        sync.Mutex
	failures  int // remaining calls that will fail
	calls     int
	failErr   error
	panicking bool
}

func (f *flakyResponder) RespondContext(ctx context.Context, q string) (Feature, error) {
	f.mu.Lock()
	f.calls++
	fail := f.failures != 0
	if f.failures > 0 {
		f.failures--
	}
	pan := f.panicking
	err := f.failErr
	f.mu.Unlock()
	if fail {
		if pan {
			panic("flaky responder exploded")
		}
		if err == nil {
			err = errors.New("flaky failure")
		}
		return Feature{}, err
	}
	return Feature{Query: q, Intents: []string{"ok"}}, nil
}

func (f *flakyResponder) callCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

// fastCfg is a resilience config with sub-millisecond backoff so retry
// tests run instantly.
func fastCfg() ResilienceConfig {
	return ResilienceConfig{
		CallTimeout: 100 * time.Millisecond,
		MaxRetries:  2,
		BackoffBase: 50 * time.Microsecond,
		BackoffMax:  200 * time.Microsecond,
		Seed:        7,
	}
}

func TestResilientRetriesUntilSuccess(t *testing.T) {
	inner := &flakyResponder{failures: 2}
	r := NewResilient(inner, fastCfg())
	f, err := r.RespondContext(context.Background(), "camping")
	if err != nil {
		t.Fatalf("call failed despite retries: %v", err)
	}
	if f.Query != "camping" {
		t.Errorf("feature = %+v", f)
	}
	if inner.callCount() != 3 {
		t.Errorf("inner calls = %d, want 3 (2 failures + success)", inner.callCount())
	}
	rs := r.ResilienceStats()
	if rs.Retries != 2 || rs.Failures != 2 {
		t.Errorf("stats = %+v, want 2 retries / 2 failures", rs)
	}
	if rs.BreakerState != BreakerClosed {
		t.Errorf("breaker = %v after recovered call", rs.BreakerState)
	}
}

func TestResilientExhaustsRetries(t *testing.T) {
	sentinel := errors.New("model backend down")
	inner := &flakyResponder{failures: -1, failErr: sentinel} // always fail
	r := NewResilient(inner, fastCfg())
	_, err := r.RespondContext(context.Background(), "q")
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
	if inner.callCount() != 3 {
		t.Errorf("inner calls = %d, want 3 attempts", inner.callCount())
	}
}

func TestResilientRecoversPanics(t *testing.T) {
	inner := &flakyResponder{failures: -1, panicking: true}
	r := NewResilient(inner, fastCfg())
	_, err := r.RespondContext(context.Background(), "q")
	if !errors.Is(err, ErrResponderPanic) {
		t.Fatalf("err = %v, want ErrResponderPanic", err)
	}
	if got := r.ResilienceStats().Panics; got != 3 {
		t.Errorf("panics = %d, want 3 (one per attempt)", got)
	}
}

func TestResilientTimeoutOnHang(t *testing.T) {
	hang := ContextResponderFunc(func(ctx context.Context, q string) (Feature, error) {
		<-ctx.Done() // honors cancellation: unblocks on attempt timeout
		return Feature{}, ctx.Err()
	})
	cfg := fastCfg()
	cfg.CallTimeout = time.Millisecond
	cfg.MaxRetries = -1 // single attempt
	r := NewResilient(hang, cfg)
	start := time.Now()
	_, err := r.RespondContext(context.Background(), "q")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("hang was not bounded: %v", elapsed)
	}
	if got := r.ResilienceStats().Timeouts; got != 1 {
		t.Errorf("timeouts = %d, want 1", got)
	}
}

func TestResilientBackoffDeterministic(t *testing.T) {
	// The backoff schedule is a pure function of (seed, call, attempt):
	// two wrappers with the same seed record identical schedules, a
	// different seed diverges.
	schedule := func(seed int64) []time.Duration {
		inner := &flakyResponder{failures: -1}
		cfg := fastCfg()
		cfg.Seed = seed
		r := NewResilient(inner, cfg)
		var got []time.Duration
		r.sleep = func(ctx context.Context, d time.Duration) bool {
			got = append(got, d)
			return true
		}
		for i := 0; i < 4; i++ {
			_, err := r.RespondContext(context.Background(), "q")
			if err == nil {
				t.Fatal("expected failure")
			}
		}
		return got
	}
	a, b, c := schedule(1), schedule(1), schedule(2)
	if len(a) != 8 { // 4 calls x 2 retries
		t.Fatalf("schedule length = %d, want 8", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical jitter schedules")
	}
	// Jitter stays within [0.5, 1.5) of the capped exponential base.
	for i, d := range a {
		base := 50 * time.Microsecond
		if i%2 == 1 {
			base = 100 * time.Microsecond
		}
		if d < base/2 || d >= base*3/2 {
			t.Errorf("backoff %d = %v outside [%v, %v)", i, d, base/2, base*3/2)
		}
	}
}

func TestJitterForRange(t *testing.T) {
	for call := uint64(0); call < 500; call++ {
		for attempt := 1; attempt <= 3; attempt++ {
			j := jitterFor(42, call, attempt)
			if j < 0.5 || j >= 1.5 {
				t.Fatalf("jitterFor(42, %d, %d) = %v outside [0.5, 1.5)", call, attempt, j)
			}
		}
	}
	if jitterFor(1, 0, 1) == jitterFor(1, 1, 1) {
		t.Error("distinct calls should draw distinct jitter")
	}
}

// TestJitterForMatchesInlineMix holds jitterFor, which folds the
// attempt into llm.DeriveSeed's master seed, to the inline splitmix64
// it replaced, over extreme seeds, call indexes and attempts.
func TestJitterForMatchesInlineMix(t *testing.T) {
	inline := func(seed int64, call uint64, attempt int) float64 {
		z := uint64(seed) + 0x9e3779b97f4a7c15*(call+1) + 0x6a09e667f3bcc909*uint64(attempt)
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		return 0.5 + float64(z>>11)/float64(1<<53)
	}
	for _, seed := range []int64{0, 1, -1, 42, -987654321, math.MaxInt64, math.MinInt64} {
		for _, call := range []uint64{0, 1, 2, 1000, 1 << 32, 1<<63 - 1, 1 << 63} {
			for attempt := 0; attempt <= 8; attempt++ {
				if got, want := jitterFor(seed, call, attempt), inline(seed, call, attempt); got != want {
					t.Fatalf("jitterFor(%d, %d, %d) = %v, inline mix %v", seed, call, attempt, got, want)
				}
			}
		}
	}
}

func TestBreakerLifecycle(t *testing.T) {
	clock := NewFakeClock(time.Date(2026, 8, 6, 0, 0, 0, 0, time.UTC))
	inner := &flakyResponder{failures: -1}
	cfg := ResilienceConfig{
		CallTimeout: 100 * time.Millisecond,
		MaxRetries:  -1, // isolate the breaker from retry effects
		Breaker:     BreakerConfig{Threshold: 3, Cooldown: time.Second, Probes: 2, Clock: clock},
		Seed:        1,
	}
	r := NewResilient(inner, cfg)
	ctx := context.Background()

	// Three consecutive failures trip the breaker open.
	for i := 0; i < 3; i++ {
		if _, err := r.RespondContext(ctx, "q"); err == nil {
			t.Fatal("expected failure")
		}
	}
	if got := r.ResilienceStats().BreakerState; got != BreakerOpen {
		t.Fatalf("state after threshold failures = %v, want open", got)
	}

	// While open, calls fail fast without touching the responder.
	before := inner.callCount()
	if _, err := r.RespondContext(ctx, "q"); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err = %v, want ErrBreakerOpen", err)
	}
	if inner.callCount() != before {
		t.Error("open breaker still invoked the responder")
	}
	if got := r.ResilienceStats().BreakerRejects; got != 1 {
		t.Errorf("rejects = %d, want 1", got)
	}

	// After the cooldown the next call is admitted as a half-open
	// probe; a probe failure re-opens.
	clock.Advance(2 * time.Second)
	if _, err := r.RespondContext(ctx, "q"); err == nil || errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("probe should reach the responder and fail; err = %v", err)
	}
	if got := r.ResilienceStats().BreakerState; got != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", got)
	}

	// Heal the backend; cooldown elapses; two probe successes close it.
	inner.mu.Lock()
	inner.failures = 0
	inner.mu.Unlock()
	clock.Advance(2 * time.Second)
	if _, err := r.RespondContext(ctx, "q"); err != nil {
		t.Fatalf("first probe: %v", err)
	}
	if got := r.ResilienceStats().BreakerState; got != BreakerHalfOpen {
		t.Fatalf("state after first probe success = %v, want half-open", got)
	}
	if _, err := r.RespondContext(ctx, "q"); err != nil {
		t.Fatalf("second probe: %v", err)
	}
	if got := r.ResilienceStats().BreakerState; got != BreakerClosed {
		t.Fatalf("state after probe quorum = %v, want closed", got)
	}
	if got := r.ResilienceStats().BreakerOpens; got != 2 {
		t.Errorf("opens = %d, want 2 (threshold trip + failed probe)", got)
	}

	// Closed again: traffic flows.
	if _, err := r.RespondContext(ctx, "q"); err != nil {
		t.Errorf("closed breaker rejected traffic: %v", err)
	}
}

func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	clock := NewFakeClock(time.Date(2026, 8, 6, 0, 0, 0, 0, time.UTC))
	blocked := make(chan struct{})
	release := make(chan struct{})
	var mu sync.Mutex
	failing := true
	inner := ContextResponderFunc(func(ctx context.Context, q string) (Feature, error) {
		mu.Lock()
		f := failing
		mu.Unlock()
		if f {
			return Feature{}, errors.New("down")
		}
		close(blocked) // signal: probe in flight
		<-release
		return Feature{}, nil
	})
	cfg := ResilienceConfig{
		CallTimeout: time.Minute,
		MaxRetries:  -1,
		Breaker:     BreakerConfig{Threshold: 1, Cooldown: time.Second, Probes: 1, Clock: clock},
		Seed:        1,
	}
	r := NewResilient(inner, cfg)
	ctx := context.Background()
	if _, err := r.RespondContext(ctx, "q"); err == nil {
		t.Fatal("expected trip")
	}
	mu.Lock()
	failing = false
	mu.Unlock()
	clock.Advance(2 * time.Second)

	// First caller becomes the probe and blocks inside the responder;
	// a second caller must be rejected, not become a second probe.
	probeDone := make(chan error, 1)
	go func() {
		_, err := r.RespondContext(ctx, "probe")
		probeDone <- err
	}()
	<-blocked
	if _, err := r.RespondContext(ctx, "q"); !errors.Is(err, ErrBreakerOpen) {
		t.Errorf("second half-open caller err = %v, want ErrBreakerOpen", err)
	}
	close(release)
	if err := <-probeDone; err != nil {
		t.Fatalf("probe failed: %v", err)
	}
	if got := r.ResilienceStats().BreakerState; got != BreakerClosed {
		t.Errorf("state = %v, want closed after successful probe", got)
	}
}

// TestResilientConcurrent hammers one wrapper from many goroutines with
// a mix of outcomes; under -race this is the wrapper's concurrency
// proof, and the counters must balance afterwards.
func TestResilientConcurrent(t *testing.T) {
	inner := ContextResponderFunc(func(ctx context.Context, q string) (Feature, error) {
		if len(q)%3 == 0 {
			return Feature{}, errors.New("unlucky")
		}
		return Feature{Query: q}, nil
	})
	cfg := fastCfg()
	cfg.Breaker.Threshold = -1 // keep traffic flowing for the count check
	r := NewResilient(inner, cfg)
	var wg sync.WaitGroup
	var okCount, errCount struct {
		mu sync.Mutex
		n  int
	}
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_, err := r.RespondContext(context.Background(), fmt.Sprintf("q%d-%d", w, i))
				if err != nil {
					errCount.mu.Lock()
					errCount.n++
					errCount.mu.Unlock()
				} else {
					okCount.mu.Lock()
					okCount.n++
					okCount.mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	if okCount.n+errCount.n != 1600 {
		t.Fatalf("outcomes = %d, want 1600", okCount.n+errCount.n)
	}
	rs := r.ResilienceStats()
	if rs.Calls != 1600 {
		t.Errorf("calls = %d, want 1600", rs.Calls)
	}
	if errCount.n > 0 && rs.Retries == 0 {
		t.Error("failures occurred but no retries were recorded")
	}
}
