package faults

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"cosmo/internal/serving"
)

// outcomes classifies 1+MaxRetries of Inject results for determinism
// comparison: "panic", "err", or "ok".
func outcomes(inj *Injector, n int) []string {
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = func() (kind string) {
			defer func() {
				if recover() != nil {
					kind = "panic"
				}
			}()
			if err := inj.Inject(context.Background()); err != nil {
				return "err"
			}
			return "ok"
		}()
	}
	return out
}

func TestInjectorDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, ErrorRate: 0.4, PanicRate: 0.1}
	a := outcomes(New(cfg), 300)
	b := outcomes(New(cfg), 300)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d: %s vs %s", i, a[i], b[i])
		}
	}
	cfg.Seed = 43
	c := outcomes(New(cfg), 300)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced an identical fault sequence")
	}
}

func TestInjectorRatesAndConservation(t *testing.T) {
	inj := New(Config{Seed: 7, ErrorRate: 0.25})
	const n = 20000
	injected := 0
	for i := 0; i < n; i++ {
		if inj.Inject(context.Background()) != nil {
			injected++
		}
	}
	rate := float64(injected) / n
	if rate < 0.20 || rate > 0.30 {
		t.Errorf("observed error rate %.3f, want ~0.25", rate)
	}
	s := inj.Stats()
	if s.Calls != n {
		t.Errorf("calls = %d, want %d", s.Calls, n)
	}
	if s.Errors+s.Latencies+s.Hangs+s.Panics+s.Clean != s.Calls {
		t.Errorf("stats do not conserve: %+v", s)
	}
}

func TestInjectorHangHonorsContext(t *testing.T) {
	inj := New(Config{Seed: 1, HangRate: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := inj.Inject(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hang returned %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("hang ignored cancellation for %v", elapsed)
	}
}

func TestInjectorLatencySpike(t *testing.T) {
	inj := New(Config{Seed: 1, LatencyRate: 1, Latency: time.Millisecond})
	if err := inj.Inject(context.Background()); err != nil {
		t.Fatalf("latency spike failed the call: %v", err)
	}
	// A cancelled context cuts the spike short with its error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := inj.Inject(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled latency spike returned %v", err)
	}
}

func TestInjectorDisabledPassesThrough(t *testing.T) {
	inj := New(Config{Seed: 1, ErrorRate: 1})
	inj.SetEnabled(false)
	for i := 0; i < 10; i++ {
		if err := inj.Inject(context.Background()); err != nil {
			t.Fatalf("disabled injector injected: %v", err)
		}
	}
	if got := inj.Stats().Calls; got != 0 {
		t.Errorf("disabled injector consumed %d rolls", got)
	}
	inj.SetEnabled(true)
	if err := inj.Inject(context.Background()); !errors.Is(err, ErrInjected) {
		t.Fatalf("re-enabled injector returned %v", err)
	}
}

func TestWrapComposition(t *testing.T) {
	base := serving.ContextResponderFunc(func(ctx context.Context, q string) (serving.Feature, error) {
		return serving.Feature{Query: q, Intents: []string{"real"}}, nil
	})
	inj := New(Config{Seed: 3, ErrorRate: 1})
	wrapped := Wrap(base, inj)
	if _, err := wrapped.RespondContext(context.Background(), "q"); !errors.Is(err, ErrInjected) {
		t.Fatalf("wrapped call returned %v, want ErrInjected", err)
	}
	inj.SetEnabled(false)
	f, err := wrapped.RespondContext(context.Background(), "q")
	if err != nil || len(f.Intents) != 1 {
		t.Fatalf("passthrough = %+v, %v", f, err)
	}
}

func TestSequenceDeterministicRate(t *testing.T) {
	a := NewSequence(9, 0.3)
	b := NewSequence(9, 0.3)
	fires := 0
	const n = 10000
	for i := 0; i < n; i++ {
		av, bv := a.Next(), b.Next()
		if av != bv {
			t.Fatalf("sequences with the same seed diverged at %d", i)
		}
		if av {
			fires++
		}
	}
	rate := float64(fires) / n
	if rate < 0.25 || rate > 0.35 {
		t.Errorf("fire rate %.3f, want ~0.3", rate)
	}
}

// TestRollMatchesInlineMix holds roll, which reads llm.DeriveSeed, to
// the inline splitmix64 it replaced, over extreme seeds and call
// indexes.
func TestRollMatchesInlineMix(t *testing.T) {
	inline := func(seed int64, n uint64) float64 {
		z := uint64(seed) + 0x9e3779b97f4a7c15*(n+1)
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		return float64(z>>11) / float64(1<<53)
	}
	for _, seed := range []int64{0, 1, -1, 42, -987654321, math.MaxInt64, math.MinInt64} {
		for _, n := range []uint64{0, 1, 2, 1000, 1 << 32, 1<<63 - 1, 1 << 63, math.MaxUint64} {
			if got, want := roll(seed, n), inline(seed, n); got != want {
				t.Fatalf("roll(%d, %d) = %v, inline mix %v", seed, n, got, want)
			}
		}
	}
}
