// Package metrics implements the evaluation metrics used across the
// paper's experiments: Macro/Micro F1 for the four-class ESCI relevance
// task (Table 6, Figure 7), Hits@K / NDCG@K / MRR@K for session-based
// recommendation (Table 8), and bootstrap confidence intervals for the
// online A/B analysis.
package metrics

import (
	"math"
	"sort"
)

// Confusion is a multi-class confusion matrix over classes 0..K-1.
type Confusion struct {
	K     int
	Cells [][]int // Cells[true][pred]
}

// NewConfusion returns an empty KxK matrix.
func NewConfusion(k int) *Confusion {
	cells := make([][]int, k)
	for i := range cells {
		cells[i] = make([]int, k)
	}
	return &Confusion{K: k, Cells: cells}
}

// Add records one (true, predicted) observation.
func (c *Confusion) Add(truth, pred int) {
	if truth < 0 || truth >= c.K || pred < 0 || pred >= c.K {
		return
	}
	c.Cells[truth][pred]++
}

// Total returns the number of recorded observations.
func (c *Confusion) Total() int {
	n := 0
	for _, row := range c.Cells {
		for _, v := range row {
			n += v
		}
	}
	return n
}

// PerClassF1 returns the F1 of each class (0 when undefined).
func (c *Confusion) PerClassF1() []float64 {
	out := make([]float64, c.K)
	for k := 0; k < c.K; k++ {
		tp := c.Cells[k][k]
		fp, fn := 0, 0
		for j := 0; j < c.K; j++ {
			if j == k {
				continue
			}
			fp += c.Cells[j][k]
			fn += c.Cells[k][j]
		}
		denom := 2*tp + fp + fn
		if denom == 0 {
			out[k] = 0
			continue
		}
		out[k] = 2 * float64(tp) / float64(denom)
	}
	return out
}

// MacroF1 returns the unweighted mean of per-class F1 scores.
func (c *Confusion) MacroF1() float64 {
	f1s := c.PerClassF1()
	if len(f1s) == 0 {
		return 0
	}
	s := 0.0
	for _, f := range f1s {
		s += f
	}
	return s / float64(len(f1s))
}

// MicroF1 returns the micro-averaged F1, which for single-label
// multi-class classification equals accuracy.
func (c *Confusion) MicroF1() float64 {
	total := c.Total()
	if total == 0 {
		return 0
	}
	tp := 0
	for k := 0; k < c.K; k++ {
		tp += c.Cells[k][k]
	}
	return float64(tp) / float64(total)
}

// RankMetrics accumulates Hits@K, NDCG@K and MRR@K over queries.
type RankMetrics struct {
	K     int
	hits  float64
	ndcg  float64
	mrr   float64
	total int
}

// NewRankMetrics returns an accumulator for cutoff K.
func NewRankMetrics(k int) *RankMetrics { return &RankMetrics{K: k} }

// AddRank records one query whose correct item appeared at rank
// (1-based); pass rank <= 0 when the item was not ranked at all.
func (m *RankMetrics) AddRank(rank int) {
	m.total++
	if rank <= 0 || rank > m.K {
		return
	}
	m.hits++
	m.ndcg += 1 / math.Log2(float64(rank)+1)
	m.mrr += 1 / float64(rank)
}

// Hits returns Hits@K in [0,1].
func (m *RankMetrics) Hits() float64 { return m.ratio(m.hits) }

// NDCG returns NDCG@K in [0,1] (single relevant item per query).
func (m *RankMetrics) NDCG() float64 { return m.ratio(m.ndcg) }

// MRR returns MRR@K in [0,1].
func (m *RankMetrics) MRR() float64 { return m.ratio(m.mrr) }

// Count returns the number of queries recorded.
func (m *RankMetrics) Count() int { return m.total }

func (m *RankMetrics) ratio(v float64) float64 {
	if m.total == 0 {
		return 0
	}
	return v / float64(m.total)
}

// RankOf returns the 1-based rank of target within scores (higher score
// = better rank), or 0 if target is not present. Ties are broken by
// index order.
func RankOf(scores []float64, target int) int {
	if target < 0 || target >= len(scores) {
		return 0
	}
	type pair struct {
		idx int
		s   float64
	}
	ps := make([]pair, len(scores))
	for i, s := range scores {
		ps[i] = pair{i, s}
	}
	sort.SliceStable(ps, func(i, j int) bool { return ps[i].s > ps[j].s })
	for r, p := range ps {
		if p.idx == target {
			return r + 1
		}
	}
	return 0
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// RelativeLift returns (treatment-control)/control; 0 if control is 0.
func RelativeLift(control, treatment float64) float64 {
	if control == 0 {
		return 0
	}
	return (treatment - control) / control
}
