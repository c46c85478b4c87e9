package serving

import (
	"math"
	"sort"
	"sync/atomic"
)

// DefaultLatencyBucketsMs are the upper bounds (ms) of the serving
// latency histograms. They start at 2µs, where an in-process handler
// answers from the cache, double up to 2ms, then widen roughly
// geometrically up to the multi-second range where an online system has
// already failed its latency budget.
var DefaultLatencyBucketsMs = []float64{
	0.002, 0.004, 0.008, 0.016, 0.032, 0.064, 0.125,
	0.25, 0.5, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64,
	96, 128, 192, 256, 384, 512, 768, 1024,
}

// Histogram is a fixed-bucket latency histogram. Observations and
// snapshots use atomics only, so the request hot path never takes a
// lock and memory stays O(buckets) regardless of request count —
// replacing the unbounded per-request latency slice the deployment used
// to keep.
type Histogram struct {
	bounds []float64      // ascending upper bounds; observations above the last go to overflow
	counts []atomic.Int64 // len(bounds)+1; last slot is the overflow bucket
	total  atomic.Int64
	sumNs  atomic.Int64 // sum in integer nanoseconds (atomic float sums race)
}

// HistogramSnapshot is a point-in-time copy of a Histogram's state.
type HistogramSnapshot struct {
	Bounds []float64 // upper bounds, ascending
	Counts []int64   // per-bucket counts; len(Bounds)+1 with overflow last
	Total  int64
	SumMs  float64
}

// NewHistogram builds a histogram over the given ascending upper bounds
// (DefaultLatencyBucketsMs when nil).
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBucketsMs
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one latency observation in milliseconds. The sum
// keeps nanosecond resolution, so a microsecond handler time counts in
// full.
func (h *Histogram) Observe(ms float64) {
	// Binary search for the first bound >= ms; everything above the last
	// bound lands in the overflow bucket.
	i := sort.SearchFloat64s(h.bounds, ms)
	h.counts[i].Add(1)
	h.total.Add(1)
	h.sumNs.Add(int64(math.Round(ms * 1e6)))
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 { return h.total.Load() }

// Snapshot copies the current bucket counts.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Total += c
	}
	s.SumMs = float64(h.sumNs.Load()) / 1e6
	return s
}

// Quantile estimates the p-quantile (p in [0,1]) in O(buckets) by
// returning the upper bound of the bucket containing the rank — the
// standard conservative fixed-bucket estimate. Returns 0 when empty;
// observations in the overflow bucket report the last finite bound.
// It walks the atomic buckets in place and allocates nothing (the
// router derives its hedge delay from it on every request); on a
// quiescent histogram it equals Snapshot().Quantile(p).
func (h *Histogram) Quantile(p float64) float64 {
	// Observe bumps a bucket before total, so a racing reader's rank
	// always falls inside the buckets it then walks.
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	rank := quantileRank(p, total)
	var cum int64
	for i := range h.bounds {
		cum += h.counts[i].Load()
		if cum > rank {
			return h.bounds[i]
		}
	}
	return h.bounds[len(h.bounds)-1]
}

// quantileRank is the zero-based rank of the p-quantile among total
// observations, with p clamped to [0,1].
func quantileRank(p float64, total int64) int64 {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := int64(p * float64(total))
	if rank >= total {
		rank = total - 1
	}
	return rank
}

// Quantile estimates the p-quantile from a snapshot (see
// Histogram.Quantile). Taking one snapshot and deriving several
// quantiles keeps them mutually consistent.
func (s HistogramSnapshot) Quantile(p float64) float64 {
	if s.Total == 0 {
		return 0
	}
	rank := quantileRank(p, s.Total)
	var cum int64
	for i, bound := range s.Bounds {
		cum += s.Counts[i]
		if cum > rank {
			return bound
		}
	}
	return s.Bounds[len(s.Bounds)-1]
}
