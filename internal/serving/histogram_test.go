package serving

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(nil)
	if h.Count() != 0 {
		t.Errorf("count = %d", h.Count())
	}
	if q := h.Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %v, want 0", q)
	}
}

func TestHistogramQuantileBucketBounds(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	// 90 observations in the <=2 bucket, 10 in the <=8 bucket.
	for i := 0; i < 90; i++ {
		h.Observe(1.5)
	}
	for i := 0; i < 10; i++ {
		h.Observe(5)
	}
	if got := h.Quantile(0.5); got != 2 {
		t.Errorf("p50 = %v, want bucket bound 2", got)
	}
	if got := h.Quantile(0.95); got != 8 {
		t.Errorf("p95 = %v, want bucket bound 8", got)
	}
	if got := h.Quantile(0); got != 2 {
		t.Errorf("p0 = %v, want 2", got)
	}
	if got := h.Quantile(1); got != 8 {
		t.Errorf("p1 = %v, want 8", got)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	h.Observe(100) // beyond the last bound
	if got := h.Quantile(0.99); got != 2 {
		t.Errorf("overflow quantile = %v, want last finite bound 2", got)
	}
	s := h.Snapshot()
	if s.Counts[len(s.Counts)-1] != 1 {
		t.Errorf("overflow count = %v", s.Counts)
	}
}

// TestHistogramQuantileInPlace pins the in-place walk to the snapshot
// estimate on random fills (including the overflow bucket, empty and
// out-of-range p) and to zero allocations.
func TestHistogramQuantileInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ps := []float64{-1, 0, 0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1, 2}
	for round := 0; round < 200; round++ {
		h := NewHistogram(nil)
		scale := []float64{0.3, 5, 80, 3000}[round%4]
		for i, n := 0, rng.Intn(400); i < n; i++ {
			h.Observe(rng.ExpFloat64() * scale)
		}
		s := h.Snapshot()
		for _, p := range ps {
			if got, want := h.Quantile(p), s.Quantile(p); got != want {
				t.Fatalf("round %d (%d obs): Quantile(%v) = %v, Snapshot().Quantile = %v", round, s.Total, p, got, want)
			}
		}
	}
	h := NewHistogram(nil)
	for i := 0; i < 1000; i++ {
		h.Observe(rng.ExpFloat64() * 5)
	}
	var sink float64
	if allocs := testing.AllocsPerRun(100, func() { sink += h.Quantile(0.99) }); allocs != 0 {
		t.Fatalf("Histogram.Quantile allocates %v times per call, want 0", allocs)
	}
	_ = sink
}

func TestHistogramSnapshotSum(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(3)
	s := h.Snapshot()
	if s.Total != 3 {
		t.Errorf("total = %d", s.Total)
	}
	if s.SumMs != 5 {
		t.Errorf("sum = %v, want 5", s.SumMs)
	}
}

// TestHistogramConcurrentObserve drives Observe from many goroutines;
// under -race this proves the hot path is lock-free and data-race-free,
// and the final count must be exact (no lost updates).
func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram(nil)
	const (
		workers = 8
		perW    = 10000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				h.Observe(float64(w + 1))
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != workers*perW {
		t.Errorf("count = %d, want %d", h.Count(), workers*perW)
	}
	if got := h.Quantile(0.5); got < 1 || got > float64(workers) {
		t.Errorf("p50 = %v out of observed range", got)
	}
}

// TestHistogramSumKeepsSubMicrosecond: the sum is kept in nanoseconds,
// so handler times below a microsecond count in full; a sum in whole
// microseconds read 0 here.
func TestHistogramSumKeepsSubMicrosecond(t *testing.T) {
	h := NewHistogram(nil)
	for i := 0; i < 1000; i++ {
		h.Observe(0.0004)
	}
	if got := h.Snapshot().SumMs; got != 0.4 {
		t.Errorf("sum of 1000 × 0.0004ms = %vms, want 0.4ms", got)
	}
}

// TestDeploymentMemoryBounded: the deployment's per-request state is a
// fixed histogram, so the latency structure must not grow with request
// count (regression for the old unbounded latencies slice).
func TestDeploymentMemoryBounded(t *testing.T) {
	d := NewDeploymentContext(DeployConfig{DailyCacheCap: 16}, echoResponder("v1"))
	h := NewHTTPHandler(d)
	for i := 0; i < 5000; i++ {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/intent?q=same-query", nil))
	}
	s := d.Latency("intent")
	if len(s.Counts) != len(DefaultLatencyBucketsMs)+1 {
		t.Errorf("bucket count %d changed with traffic", len(s.Counts))
	}
	if s.Total != 5000 {
		t.Errorf("observations = %d", s.Total)
	}
}
