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

// CooccurrenceStats tracks, for each knowledge string, the set of distinct
// contexts (products or queries) it was generated for. The paper identifies
// generic knowledge ("used for the same reason") by combining frequency and
// entropy: generic strings co-occur with many distinct contexts rather than
// specific ones.
type CooccurrenceStats struct {
	counts map[string]map[string]int
	total  map[string]int
}

// NewCooccurrenceStats returns an empty tracker.
func NewCooccurrenceStats() *CooccurrenceStats {
	return &CooccurrenceStats{
		counts: map[string]map[string]int{},
		total:  map[string]int{},
	}
}

// Observe records one generation of knowledge string k for context c.
func (s *CooccurrenceStats) Observe(k, c string) {
	m := s.counts[k]
	if m == nil {
		m = map[string]int{}
		s.counts[k] = m
	}
	m[c]++
	s.total[k]++
}

// Frequency returns how many times k was generated (over all contexts).
func (s *CooccurrenceStats) Frequency(k string) int { return s.total[k] }

// ContextEntropy returns the entropy (bits) of the context distribution
// for k. High entropy means k spreads evenly over many contexts — a
// hallmark of generic knowledge. The counts are summed in ascending
// order: map order would change the float's last bits from run to run.
func (s *CooccurrenceStats) ContextEntropy(k string) float64 {
	m := s.counts[k]
	if len(m) == 0 {
		return 0
	}
	counts := make([]int, 0, len(m))
	for _, c := range m {
		counts = append(counts, c)
	}
	sort.Ints(counts)
	return Entropy(counts)
}

// DistinctContexts returns the number of distinct contexts k appeared with.
func (s *CooccurrenceStats) DistinctContexts(k string) int {
	return len(s.counts[k])
}

// IsGeneric applies the paper's frequency+entropy test: k is generic if it
// was generated at least minFreq times AND its context entropy is at least
// minEntropy bits (it appears broadly rather than with specific contexts).
func (s *CooccurrenceStats) IsGeneric(k string, minFreq int, minEntropy float64) bool {
	return s.Frequency(k) >= minFreq && s.ContextEntropy(k) >= minEntropy
}

// Keys returns all observed knowledge strings (order unspecified).
func (s *CooccurrenceStats) Keys() []string {
	out := make([]string, 0, len(s.counts))
	for k := range s.counts {
		out = append(out, k)
	}
	return out
}
