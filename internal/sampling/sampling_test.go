package sampling

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"cosmo/internal/behavior"
	"cosmo/internal/catalog"
)

func testSampler(t *testing.T) (*behavior.Log, *Sampler) {
	t.Helper()
	c := catalog.Generate(catalog.Config{ProductsPerType: 6, Seed: 1})
	l := behavior.Simulate(c, behavior.Config{
		Seed: 2, CoBuyEvents: 8000, SearchEvents: 8000,
		NoiseRate: 0.3, BroadQueryRate: 0.4,
	})
	return l, New(l, DefaultConfig())
}

func TestSampleProductsTopTier(t *testing.T) {
	l, s := testSampler(t)
	sel := s.SampleProducts()
	if len(sel) == 0 {
		t.Fatal("no products selected")
	}
	// Every type contributes at most TopProductsPerType products.
	perType := map[string]int{}
	for id := range sel {
		p, _ := l.Catalog.ByID(id)
		perType[p.Type]++
	}
	for tn, n := range perType {
		if n > DefaultConfig().TopProductsPerType {
			t.Errorf("type %q selected %d products", tn, n)
		}
	}
	// Selected products of a type must have interaction volume >= any
	// unselected product of the same type.
	for _, tn := range l.Catalog.Types() {
		minSel, maxUnsel := math.MaxInt, -1
		for _, p := range l.Catalog.OfType(tn) {
			vol := l.CoBuyDegree(p.ID) + l.ProductQueryDegree(p.ID)
			if sel[p.ID] {
				if vol < minSel {
					minSel = vol
				}
			} else if vol > maxUnsel {
				maxUnsel = vol
			}
		}
		if maxUnsel > minSel {
			t.Fatalf("type %q: unselected product has volume %d > selected min %d", tn, maxUnsel, minSel)
		}
	}
}

// TestSamplingLeavesCatalogViews: OfType is a view of the catalog, so
// sampling must not reorder it: after SampleProducts and
// SampleCoBuyPairs every type's products are still in ID order.
func TestSamplingLeavesCatalogViews(t *testing.T) {
	l, s := testSampler(t)
	s.SampleCoBuyPairs(s.SampleProducts())
	for _, tn := range l.Catalog.Types() {
		if !slices.IsSortedFunc(l.Catalog.OfType(tn), func(a, b catalog.Product) int { return strings.Compare(a.ID, b.ID) }) {
			t.Fatalf("OfType(%q) is out of ID order after sampling", tn)
		}
	}
}

func TestSampleCoBuyPairsFiltersRandom(t *testing.T) {
	l, s := testSampler(t)
	sel := s.SampleProducts()
	pairs := s.SampleCoBuyPairs(sel)
	if len(pairs) == 0 {
		t.Fatal("no pairs sampled")
	}
	c := l.Catalog
	intentional := 0
	for _, e := range pairs {
		if !sel[e.A] && !sel[e.B] {
			t.Fatal("pair covers no selected product")
		}
		if e.Intentional {
			intentional++
		}
		pa, _ := c.ByID(e.A)
		pb, _ := c.ByID(e.B)
		if pa.Type != pb.Type && !c.AreComplements(pa.Type, pb.Type) {
			a0 := c.OfType(pa.Type)[0]
			b0 := c.OfType(pb.Type)[0]
			if len(c.AppendSharedIntents(nil, a0, b0)) == 0 {
				t.Fatalf("random-type pair survived: %s / %s", pa.Type, pb.Type)
			}
		}
	}
	// The sampled set should be much cleaner than the raw log.
	rawIntentional := 0
	for _, e := range l.CoBuys {
		if e.Intentional {
			rawIntentional++
		}
	}
	rawRate := float64(rawIntentional) / float64(len(l.CoBuys))
	sampledRate := float64(intentional) / float64(len(pairs))
	if sampledRate <= rawRate {
		t.Errorf("sampling should raise intentional rate: %.2f vs raw %.2f", sampledRate, rawRate)
	}
}

func TestTypePairCap(t *testing.T) {
	l, _ := testSampler(t)
	cfg := DefaultConfig()
	cfg.MaxPairsPerTypePair = 3
	s := New(l, cfg)
	sel := s.SampleProducts()
	pairs := s.SampleCoBuyPairs(sel)
	counts := map[[2]string]int{}
	for _, e := range pairs {
		pa, _ := l.Catalog.ByID(e.A)
		pb, _ := l.Catalog.ByID(e.B)
		tp := [2]string{pa.Type, pb.Type}
		if tp[0] > tp[1] {
			tp[0], tp[1] = tp[1], tp[0]
		}
		counts[tp]++
	}
	for tp, n := range counts {
		if n > 3 {
			t.Errorf("type pair %v sampled %d > cap 3", tp, n)
		}
	}
}

func TestSpecificityOrdering(t *testing.T) {
	_, s := testSampler(t)
	broad := s.Specificity("camping")
	specific := s.Specificity("camping air mattress for lakeside trips")
	if broad >= specific {
		t.Errorf("broad %.2f should score below specific %.2f", broad, specific)
	}
}

func TestSampleSearchBuyPairsThresholds(t *testing.T) {
	_, s := testSampler(t)
	sel := s.SampleProducts()
	pairs := s.SampleSearchBuyPairs(sel)
	if len(pairs) == 0 {
		t.Fatal("no search pairs sampled")
	}
	cfg := DefaultConfig()
	lowEngagement := 0
	for _, e := range pairs {
		if !sel[e.ProductID] {
			t.Fatal("pair covers no selected product")
		}
		rate := float64(e.Purchases) / float64(e.Clicks)
		if e.Clicks < cfg.MinClickCount || rate < cfg.MinPurchaseRate {
			lowEngagement++
		}
	}
	// Some low-engagement probes are allowed, but bounded.
	if frac := float64(lowEngagement) / float64(len(pairs)); frac > 0.2 {
		t.Errorf("low-engagement fraction %.2f too high", frac)
	}
}

func TestAnnotationWeight(t *testing.T) {
	// Eq. 2: increasing frequency raises weight; increasing popularity
	// lowers it.
	if AnnotationWeight(10, 1, 1) <= AnnotationWeight(2, 1, 1) {
		t.Error("higher frequency should raise weight")
	}
	if AnnotationWeight(5, 10, 10) >= AnnotationWeight(5, 1, 1) {
		t.Error("higher popularity should lower weight")
	}
	// Degenerate inputs are clamped, not panicking or zero-dividing.
	if w := AnnotationWeight(0, 0, 0); w <= 0 || math.IsInf(w, 0) || math.IsNaN(w) {
		t.Errorf("clamped weight = %v", w)
	}
}

func TestWeightedSample(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	weights := []float64{0, 1, 100, 1, 0}
	counts := make([]int, len(weights))
	for trial := 0; trial < 500; trial++ {
		for _, idx := range WeightedSample(rng, weights, 2) {
			counts[idx]++
		}
	}
	if counts[0] != 0 || counts[4] != 0 {
		t.Error("zero-weight items were drawn")
	}
	if counts[2] != 500 {
		t.Errorf("dominant item drawn %d/500", counts[2])
	}
	if counts[1] == 0 || counts[3] == 0 {
		t.Error("light items never drawn in 500 trials of 2")
	}
}

func TestWeightedSampleBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	out := WeightedSample(rng, []float64{1, 2}, 10)
	if len(out) != 2 {
		t.Errorf("n capped incorrectly: %v", out)
	}
	if out[0] != 0 || out[1] != 1 {
		t.Errorf("expected sorted all indices, got %v", out)
	}
	if got := WeightedSample(rng, nil, 3); len(got) != 0 {
		t.Errorf("empty weights should give empty sample, got %v", got)
	}
}

func TestWeightedSampleDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	weights := make([]float64, 50)
	for i := range weights {
		weights[i] = 1
	}
	for trial := 0; trial < 50; trial++ {
		out := WeightedSample(rng, weights, 10)
		seen := map[int]bool{}
		for _, idx := range out {
			if seen[idx] {
				t.Fatal("duplicate index drawn")
			}
			seen[idx] = true
		}
	}
}
