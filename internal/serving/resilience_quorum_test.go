package serving

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestResilientHalfOpenProbeQuorumConcurrent hammers a half-open
// breaker with concurrent callers: exactly one is admitted as the probe
// at a time (the rest fail fast with ErrBreakerOpen), and each probe's
// success counts toward the quorum exactly once — two probes with
// Probes=2 close the breaker, no matter how many callers raced.
func TestResilientHalfOpenProbeQuorumConcurrent(t *testing.T) {
	const callers = 8
	clock := NewFakeClock(time.Unix(1_700_000_000, 0))
	var failMode atomic.Bool
	entered := make(chan struct{}, callers)
	release := make(chan struct{})
	r := NewResilient(ContextResponderFunc(func(ctx context.Context, q string) (Feature, error) {
		if failMode.Load() {
			return Feature{}, errors.New("boom")
		}
		entered <- struct{}{}
		<-release
		return Feature{Query: q}, nil
	}), ResilienceConfig{
		CallTimeout: -1, // probes block until released; no attempt timeout
		MaxRetries:  -1,
		Breaker:     BreakerConfig{Threshold: 1, Cooldown: time.Second, Probes: 2, Clock: clock},
	})

	// Trip the breaker open with one failure.
	failMode.Store(true)
	if _, err := r.RespondContext(context.Background(), "q"); err == nil {
		t.Fatal("tripping call succeeded")
	}
	if got := r.ResilienceStats().BreakerState; got != BreakerOpen {
		t.Fatalf("state after trip = %v, want open", got)
	}
	failMode.Store(false)
	clock.Advance(2 * time.Second) // cooldown elapses; next caller probes

	// wave races `callers` concurrent requests against the half-open
	// breaker and asserts exactly one probe is admitted.
	wave := func(waveNo int) {
		t.Helper()
		var wg sync.WaitGroup
		var rejects, successes atomic.Int32
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, err := r.RespondContext(context.Background(), "q")
				switch {
				case err == nil:
					successes.Add(1)
				case errors.Is(err, ErrBreakerOpen):
					rejects.Add(1)
				default:
					t.Errorf("wave %d: unexpected error %v", waveNo, err)
				}
			}()
		}
		<-entered // the single admitted probe is now blocked inside the responder
		// Every other caller must fail fast while the probe slot is held.
		deadline := time.Now().Add(5 * time.Second)
		for rejects.Load() != callers-1 {
			if time.Now().After(deadline) {
				t.Fatalf("wave %d: %d rejects, want %d while the probe is in flight",
					waveNo, rejects.Load(), callers-1)
			}
			time.Sleep(time.Millisecond)
		}
		select {
		case <-entered:
			t.Fatalf("wave %d: a second probe was admitted concurrently", waveNo)
		default:
		}
		release <- struct{}{} // let the probe succeed
		wg.Wait()
		if successes.Load() != 1 {
			t.Fatalf("wave %d: %d successes, want exactly the probe", waveNo, successes.Load())
		}
	}

	wave(1)
	if got := r.ResilienceStats().BreakerState; got != BreakerHalfOpen {
		t.Fatalf("state after probe 1/2 = %v, want still half-open", got)
	}
	wave(2)
	if got := r.ResilienceStats().BreakerState; got != BreakerClosed {
		t.Fatalf("state after probe 2/2 = %v, want closed", got)
	}

	stats := r.ResilienceStats()
	if stats.BreakerOpens != 1 {
		t.Fatalf("opens = %d, want 1", stats.BreakerOpens)
	}
	// 1 tripping call + exactly 2 probes were admitted past the breaker.
	if stats.Calls != 3 {
		t.Fatalf("admitted calls = %d, want 3 (quorum must count once per probe)", stats.Calls)
	}
	if want := uint64(2 * (callers - 1)); stats.BreakerRejects != want {
		t.Fatalf("breaker rejects = %d, want %d", stats.BreakerRejects, want)
	}
}
