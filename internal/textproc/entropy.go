package textproc

import (
	"math"
	"sort"
)

// Entropy returns the Shannon entropy (bits) of the distribution implied
// by counts. Zero counts are ignored.
func Entropy(counts []int) float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	h := 0.0
	for _, c := range counts {
		if c <= 0 {
			continue
		}
		p := float64(c) / float64(total)
		h -= p * math.Log2(p)
	}
	return h
}

// CooccurrenceStats tracks, for each knowledge string, the distinct
// contexts (products, queries or product-type pairs: any comparable C) it
// was generated for. The paper identifies generic knowledge ("used for
// the same reason") by combining frequency and entropy: generic strings
// co-occur with many distinct contexts rather than specific ones.
type CooccurrenceStats[C comparable] struct {
	counts map[string]map[C]int
	total  map[string]int
}

// NewCooccurrenceStats returns an empty tracker.
func NewCooccurrenceStats[C comparable]() *CooccurrenceStats[C] {
	return &CooccurrenceStats[C]{
		counts: map[string]map[C]int{},
		total:  map[string]int{},
	}
}

// Observe records one generation of knowledge string k for context c.
func (s *CooccurrenceStats[C]) Observe(k string, c C) {
	m := s.counts[k]
	if m == nil {
		m = map[C]int{}
		s.counts[k] = m
	}
	m[c]++
	s.total[k]++
}

// Frequency returns how many times k was generated (over all contexts).
func (s *CooccurrenceStats[C]) Frequency(k string) int { return s.total[k] }

// ContextEntropy returns the entropy (bits) of the context distribution
// for k. High entropy means k spreads evenly over many contexts — a
// hallmark of generic knowledge. The counts are summed in ascending
// order: map order would change the float's last bits from run to run.
func (s *CooccurrenceStats[C]) ContextEntropy(k string) float64 {
	h, _ := contextEntropy(s.counts[k], nil)
	return h
}

// ContextEntropies returns ContextEntropy(k) for every k generated at
// least minFreq times, each worked out once and sorted in one reused
// buffer: the memo of a caller that tests many generations of the same
// strings once every Observe is done.
func (s *CooccurrenceStats[C]) ContextEntropies(minFreq int) map[string]float64 {
	out := map[string]float64{}
	var buf []int
	for k, m := range s.counts {
		if s.total[k] >= minFreq {
			out[k], buf = contextEntropy(m, buf)
		}
	}
	return out
}

// contextEntropy is the entropy of the counts in m, summed in ascending
// order, sorted in buf; it returns buf for reuse.
func contextEntropy[C comparable](m map[C]int, buf []int) (float64, []int) {
	if len(m) == 0 {
		return 0, buf
	}
	buf = buf[:0]
	for _, c := range m {
		buf = append(buf, c)
	}
	sort.Ints(buf)
	return Entropy(buf), buf
}

// DistinctContexts returns the number of distinct contexts k appeared with.
func (s *CooccurrenceStats[C]) DistinctContexts(k string) int {
	return len(s.counts[k])
}

// IsGeneric applies the paper's frequency+entropy test: k is generic if it
// was generated at least minFreq times AND its context entropy is at least
// minEntropy bits (it appears broadly rather than with specific contexts).
func (s *CooccurrenceStats[C]) IsGeneric(k string, minFreq int, minEntropy float64) bool {
	return s.Frequency(k) >= minFreq && s.ContextEntropy(k) >= minEntropy
}
