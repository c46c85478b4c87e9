package llm

import (
	"testing"

	"cosmo/internal/catalog"
)

func testTeacher(t testing.TB) (*catalog.Catalog, *Teacher) {
	t.Helper()
	c := catalog.Generate(catalog.Config{ProductsPerType: 3, Seed: 1})
	return c, NewTeacher(c, DefaultConfig(OPT30B))
}

func TestGenerateCoBuyModes(t *testing.T) {
	c, teach := testTeacher(t)
	a := c.OfType("tent")[0]
	b := c.OfType("sleeping bag")[0]
	cands := teach.GenerateCoBuy(a, b, 500)
	if len(cands) != 500 {
		t.Fatalf("got %d candidates", len(cands))
	}
	modes := map[NoiseMode]int{}
	for _, cd := range cands {
		if cd.Text == "" {
			t.Fatal("empty candidate")
		}
		modes[cd.Truth.Mode]++
	}
	for _, m := range []NoiseMode{ModeTypical, ModeOneSided, ModeGeneric} {
		if modes[m] == 0 {
			t.Errorf("mode %s never generated: %v", m, modes)
		}
	}
}

func TestTypicalCoBuyCandidatesMatchSharedIntent(t *testing.T) {
	c, teach := testTeacher(t)
	a := c.OfType("tent")[0]
	b := c.OfType("sleeping bag")[0]
	sharedSurfaces := map[string]bool{}
	for _, in := range c.AppendSharedIntents(nil, a, b) {
		sharedSurfaces[in.Surface()] = true
	}
	for _, cd := range teach.GenerateCoBuy(a, b, 300) {
		if cd.Truth.Mode == ModeTypical && !sharedSurfaces[cd.Text] {
			t.Fatalf("typical candidate %q is not a shared intent", cd.Text)
		}
	}
}

func TestSearchBuyTypicalityHigherThanCoBuy(t *testing.T) {
	// The paper's Table 4: search-buy typicality is markedly higher than
	// co-buy. The teacher's mode mixture must reproduce this.
	c, teach := testTeacher(t)
	typicalRate := func(cands []Candidate) float64 {
		n := 0
		for _, cd := range cands {
			if cd.Truth.Typical {
				n++
			}
		}
		return float64(n) / float64(len(cands))
	}
	var co, sb []Candidate
	for _, tn := range []string{"tent", "running shoes", "dog leash", "smart watch"} {
		p := c.OfType(tn)[0]
		pt, _ := c.Type(tn)
		comp := c.OfType(pt.Complements[0])[0]
		co = append(co, teach.GenerateCoBuy(p, comp, 200)...)
		sb = append(sb, teach.GenerateSearchBuy(tn, p, 200)...)
	}
	rc, rs := typicalRate(co), typicalRate(sb)
	if rs <= rc {
		t.Errorf("search-buy typicality %.2f should exceed co-buy %.2f", rs, rc)
	}
}

func TestNoSharedIntentMeansNoTypical(t *testing.T) {
	c, teach := testTeacher(t)
	a := c.OfType("tent")[0]
	b := c.OfType("fountain pen")[0] // unrelated pair (noise co-buy)
	for _, cd := range teach.GenerateCoBuy(a, b, 200) {
		if cd.Truth.Mode == ModeTypical {
			t.Fatalf("unrelated pair produced 'typical' candidate %q", cd.Text)
		}
	}
}

func TestIncompleteCandidatesAreIncomplete(t *testing.T) {
	c, teach := testTeacher(t)
	a := c.OfType("tent")[0]
	b := c.OfType("sleeping bag")[0]
	found := false
	for _, cd := range teach.GenerateCoBuy(a, b, 1000) {
		if cd.Truth.Mode == ModeIncomplete {
			found = true
			if cd.Truth.Complete {
				t.Fatal("incomplete candidate marked complete")
			}
		}
	}
	if !found {
		t.Error("no incomplete candidates in 1000 draws")
	}
}

func TestCostAccounting(t *testing.T) {
	c := catalog.Generate(catalog.Config{ProductsPerType: 2, Seed: 1})
	t30 := NewTeacher(c, DefaultConfig(OPT30B))
	t175 := NewTeacher(c, DefaultConfig(OPT175B))
	a := c.OfType("tent")[0]
	b := c.OfType("sleeping bag")[0]
	t30.GenerateCoBuy(a, b, 50)
	t175.GenerateCoBuy(a, b, 50)
	s30, s175 := t30.Cost(), t175.Cost()
	if s30.Calls != 50 || s175.Calls != 50 {
		t.Fatalf("call counts: %d, %d", s30.Calls, s175.Calls)
	}
	if s175.SimulatedMs <= s30.SimulatedMs {
		t.Errorf("175b cost %.0f should exceed 30b cost %.0f", s175.SimulatedMs, s30.SimulatedMs)
	}
}

func TestCostMeterCustomAndReset(t *testing.T) {
	var m CostMeter
	m.ChargeCustom(CostPerTokenCosmoLM, 10)
	s := m.Snapshot()
	if s.Calls != 1 || s.Tokens != 10 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.SimulatedMs != CostPerTokenCosmoLM*(promptTokens+10) {
		t.Errorf("cost = %v", s.SimulatedMs)
	}
	m.Reset()
	if m.Snapshot() != (CostSnapshot{}) {
		t.Error("reset failed")
	}
}

func TestDeterministicGeneration(t *testing.T) {
	c := catalog.Generate(catalog.Config{ProductsPerType: 2, Seed: 1})
	a := c.OfType("tent")[0]
	b := c.OfType("sleeping bag")[0]
	t1 := NewTeacher(c, DefaultConfig(OPT30B))
	t2 := NewTeacher(c, DefaultConfig(OPT30B))
	c1 := t1.GenerateCoBuy(a, b, 100)
	c2 := t2.GenerateCoBuy(a, b, 100)
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("generation %d differs: %+v vs %+v", i, c1[i], c2[i])
		}
	}
}

func TestLargerTeacherIsMoreFaithful(t *testing.T) {
	c := catalog.Generate(catalog.Config{ProductsPerType: 3, Seed: 1})
	rate := func(size ModelSize) float64 {
		teach := NewTeacher(c, DefaultConfig(size))
		typ, total := 0, 0
		for _, tn := range []string{"tent", "dog leash", "smart watch"} {
			p := c.OfType(tn)[0]
			for _, g := range teach.GenerateSearchBuy(tn, p, 400) {
				total++
				if g.Truth.Typical {
					typ++
				}
			}
		}
		return float64(typ) / float64(total)
	}
	small, large := rate(OPT30B), rate(OPT175B)
	if large <= small {
		t.Errorf("175b typicality %.3f should exceed 30b %.3f", large, small)
	}
}
