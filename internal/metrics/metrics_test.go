package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestConfusionPerfect(t *testing.T) {
	c := NewConfusion(4)
	for k := 0; k < 4; k++ {
		for i := 0; i < 10; i++ {
			c.Add(k, k)
		}
	}
	if f := c.MacroF1(); f != 1.0 {
		t.Errorf("perfect MacroF1 = %v", f)
	}
	if f := c.MicroF1(); f != 1.0 {
		t.Errorf("perfect MicroF1 = %v", f)
	}
	if c.Total() != 40 {
		t.Errorf("total = %d", c.Total())
	}
}

func TestConfusionKnownValues(t *testing.T) {
	// Binary case: TP=8 FN=2 FP=3 TN=7 for class 1.
	c := NewConfusion(2)
	for i := 0; i < 8; i++ {
		c.Add(1, 1)
	}
	for i := 0; i < 2; i++ {
		c.Add(1, 0)
	}
	for i := 0; i < 3; i++ {
		c.Add(0, 1)
	}
	for i := 0; i < 7; i++ {
		c.Add(0, 0)
	}
	f1s := c.PerClassF1()
	// class 1: precision 8/11, recall 8/10, F1 = 2*8/(16+3+2) = 16/21.
	if math.Abs(f1s[1]-16.0/21.0) > 1e-12 {
		t.Errorf("class-1 F1 = %v, want %v", f1s[1], 16.0/21.0)
	}
	// Micro F1 == accuracy == 15/20.
	if math.Abs(c.MicroF1()-0.75) > 1e-12 {
		t.Errorf("MicroF1 = %v", c.MicroF1())
	}
}

func TestConfusionImbalancePenalizesMacro(t *testing.T) {
	// A classifier that always predicts the majority class has high
	// micro F1 but low macro F1 — the reason the paper reports both.
	c := NewConfusion(4)
	for i := 0; i < 90; i++ {
		c.Add(0, 0)
	}
	for k := 1; k < 4; k++ {
		for i := 0; i < 4; i++ {
			c.Add(k, 0) // minority classes all mispredicted
		}
	}
	if c.MicroF1() < 0.85 {
		t.Errorf("micro = %v", c.MicroF1())
	}
	if c.MacroF1() > 0.30 {
		t.Errorf("macro = %v should be low", c.MacroF1())
	}
}

func TestConfusionIgnoresOutOfRange(t *testing.T) {
	c := NewConfusion(2)
	c.Add(-1, 0)
	c.Add(0, 5)
	if c.Total() != 0 {
		t.Error("out-of-range observations must be ignored")
	}
	if c.MicroF1() != 0 || c.MacroF1() != 0 {
		t.Error("empty matrix scores must be 0")
	}
}

func TestRankMetrics(t *testing.T) {
	m := NewRankMetrics(10)
	m.AddRank(1)  // hit, ndcg 1, mrr 1
	m.AddRank(2)  // hit, ndcg 1/log2(3), mrr 0.5
	m.AddRank(11) // miss
	m.AddRank(0)  // not ranked
	if m.Count() != 4 {
		t.Errorf("count = %d", m.Count())
	}
	if math.Abs(m.Hits()-0.5) > 1e-12 {
		t.Errorf("hits = %v", m.Hits())
	}
	wantNDCG := (1 + 1/math.Log2(3)) / 4
	if math.Abs(m.NDCG()-wantNDCG) > 1e-12 {
		t.Errorf("ndcg = %v, want %v", m.NDCG(), wantNDCG)
	}
	if math.Abs(m.MRR()-1.5/4) > 1e-12 {
		t.Errorf("mrr = %v", m.MRR())
	}
}

func TestRankMetricsEmpty(t *testing.T) {
	m := NewRankMetrics(10)
	if m.Hits() != 0 || m.NDCG() != 0 || m.MRR() != 0 {
		t.Error("empty metrics should be 0")
	}
}

func TestRankOf(t *testing.T) {
	scores := []float64{0.1, 0.9, 0.5}
	if r := RankOf(scores, 1); r != 1 {
		t.Errorf("rank of best = %d", r)
	}
	if r := RankOf(scores, 2); r != 2 {
		t.Errorf("rank of middle = %d", r)
	}
	if r := RankOf(scores, 0); r != 3 {
		t.Errorf("rank of worst = %d", r)
	}
	if r := RankOf(scores, 7); r != 0 {
		t.Errorf("rank of missing = %d", r)
	}
	if r := RankOf(nil, 0); r != 0 {
		t.Errorf("rank in empty = %d", r)
	}
}

func TestRankOfTieStability(t *testing.T) {
	scores := []float64{0.5, 0.5, 0.5}
	if r := RankOf(scores, 0); r != 1 {
		t.Errorf("first tied item rank = %d", r)
	}
	if r := RankOf(scores, 2); r != 3 {
		t.Errorf("last tied item rank = %d", r)
	}
}

func TestHitsMonotoneInKProperty(t *testing.T) {
	f := func(ranks []uint8) bool {
		m5 := NewRankMetrics(5)
		m10 := NewRankMetrics(10)
		for _, r := range ranks {
			m5.AddRank(int(r))
			m10.AddRank(int(r))
		}
		return m10.Hits() >= m5.Hits()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanAndLift(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("empty mean")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Error("mean")
	}
	if RelativeLift(100, 107) != 0.07 {
		t.Errorf("lift = %v", RelativeLift(100, 107))
	}
	if RelativeLift(0, 5) != 0 {
		t.Error("zero control lift")
	}
}
