package parallel

import (
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrderPreserved(t *testing.T) {
	items := make([]int, 1000)
	for i := range items {
		items[i] = i * 3
	}
	for _, workers := range []int{1, 2, 3, 8, 64, 1000, 2000} {
		out := Map(workers, items, func(i int, v int) int { return v + i })
		for i, v := range out {
			if v != i*4 {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*4)
			}
		}
	}
}

func TestMapEmptyInput(t *testing.T) {
	out := Map(8, nil, func(i int, v int) int { return v })
	if len(out) != 0 {
		t.Fatalf("empty input produced %d results", len(out))
	}
	out = Map(8, []int{}, func(i int, v int) int { return v })
	if len(out) != 0 {
		t.Fatalf("empty slice produced %d results", len(out))
	}
}

func TestMapWorkersNormalization(t *testing.T) {
	items := []int{1, 2, 3}
	for _, workers := range []int{-5, -1, 0} {
		out := Map(workers, items, func(i int, v int) int { return v * 2 })
		if out[0] != 2 || out[1] != 4 || out[2] != 6 {
			t.Fatalf("workers=%d: wrong results %v", workers, out)
		}
	}
	// More workers than items run at most one goroutine per item, and a
	// non-positive count never exceeds GOMAXPROCS.
	for _, tc := range []struct{ workers, n, limit int }{
		{8, 3, 3},
		{64, 5, 5},
		{-1, 100, runtime.GOMAXPROCS(0)},
	} {
		var running, peak atomic.Int64
		Map(tc.workers, make([]int, tc.n), func(i int, v int) int {
			cur := running.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			running.Add(-1)
			return v
		})
		if got := int(peak.Load()); got < 1 || got > tc.limit {
			t.Errorf("workers=%d n=%d: %d goroutines ran fn at once, want 1..%d", tc.workers, tc.n, got, tc.limit)
		}
	}
}

// TestMapChunkBoundaries sweeps item counts across several chunks of
// every chunk size the worker counts produce (about four chunks per
// worker), so an off-by-one in chunk math (dropping the last partial
// chunk, double processing an edge index) cannot hide.
func TestMapChunkBoundaries(t *testing.T) {
	for _, workers := range []int{2, 3, 4, 7} {
		for n := 0; n <= 4*workers*4+1; n++ {
			items := make([]int, n)
			for i := range items {
				items[i] = i
			}
			var calls atomic.Int64
			out := Map(workers, items, func(i int, v int) int {
				calls.Add(1)
				return v + 1
			})
			if int(calls.Load()) != n {
				t.Fatalf("workers=%d n=%d: fn called %d times", workers, n, calls.Load())
			}
			for i, v := range out {
				if v != i+1 {
					t.Fatalf("workers=%d n=%d: out[%d] = %d", workers, n, i, v)
				}
			}
		}
	}
}

func TestMapPanicPropagation(t *testing.T) {
	items := make([]int, 100)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("worker panic did not propagate")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %T, want string", r)
		}
		if !strings.Contains(msg, "boom-42") {
			t.Errorf("panic message lost original value: %q", msg)
		}
		if !strings.Contains(msg, "worker stack") {
			t.Errorf("panic message lost worker stack: %q", msg)
		}
	}()
	Map(8, items, func(i int, v int) int {
		if i == 42 {
			panic("boom-42")
		}
		return v
	})
}

// TestMapPanicFirstChunkWins: with several panicking items the reported
// chunk is the lowest, keeping failures reproducible across schedules.
func TestMapPanicFirstChunkWins(t *testing.T) {
	items := make([]int, 64)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic")
		}
		if !strings.Contains(r.(string), "boom-03") {
			t.Errorf("want lowest-index panic boom-03, got %q", r)
		}
	}()
	// 4 workers over 64 items dispatch chunks of 4: the panics sit in
	// chunks 0, 10 and 15.
	Map(4, items, func(i int, v int) int {
		if i == 3 || i == 40 || i == 63 {
			panic("boom-" + string(rune('0'+i/10)) + string(rune('0'+i%10)))
		}
		return v
	})
}

func TestMapPanicSequentialFastPath(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("sequential fast path swallowed panic")
		}
	}()
	Map(1, []int{0}, func(i int, v int) int { panic("seq") })
}

func TestForEach(t *testing.T) {
	items := make([]int, 500)
	out := make([]int64, len(items))
	ForEach(7, items, func(i int, v int) { atomic.AddInt64(&out[i], int64(i)) })
	for i, v := range out {
		if v != int64(i) {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

// TestParallelMapRaceStress hammers the pool with shared read-only state and
// per-index writes under the race detector.
func TestParallelMapRaceStress(t *testing.T) {
	shared := make([]float64, 4096)
	rng := rand.New(rand.NewSource(7))
	for i := range shared {
		shared[i] = rng.Float64()
	}
	for round := 0; round < 20; round++ {
		items := make([]int, 2000)
		for i := range items {
			items[i] = i
		}
		out := Map(16, items, func(i int, v int) float64 {
			s := 0.0
			for j := 0; j < 64; j++ {
				s += shared[(v*31+j)%len(shared)]
			}
			return s
		})
		if len(out) != len(items) {
			t.Fatal("length mismatch")
		}
	}
}

func BenchmarkMap(b *testing.B) {
	items := make([]int, 1<<14)
	for i := range items {
		items[i] = i
	}
	work := func(i int, v int) float64 {
		s := 0.0
		for j := 0; j < 200; j++ {
			s += float64(v*j) * 1.000001
		}
		return s
	}
	b.Run("seq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Map(1, items, work)
		}
	})
	b.Run("pool", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Map(0, items, work)
		}
	})
}
