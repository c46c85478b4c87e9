package navigation

import (
	"testing"

	"cosmo/internal/behavior"
	"cosmo/internal/catalog"
	"cosmo/internal/kg"
	"cosmo/internal/know"
)

// oracleKG builds a knowledge graph directly from catalog ground truth,
// standing in for a pipeline-produced KG in unit tests.
func oracleKG(tb testing.TB, cat *catalog.Catalog) *kg.Graph {
	tb.Helper()
	g := kg.New()
	id := 0
	for _, tn := range cat.Types() {
		pt, _ := cat.Type(tn)
		for _, p := range cat.OfType(tn) {
			for _, in := range pt.Intents {
				id++
				c := know.Candidate{
					ID: id, Behavior: know.SearchBuy, Domain: pt.Category,
					Query: behavior.BroadQuery(in), ProductA: p.ID,
					Relation: in.Relation, Tail: in.Tail,
					PlausibleScore: 0.9, TypicalScore: 0.8,
				}
				if err := g.AddAssertion(c); err != nil {
					tb.Fatal(err)
				}
			}
		}
	}
	return g
}

func navWorld(tb testing.TB) (*catalog.Catalog, *Navigator) {
	cat := catalog.Generate(catalog.Config{ProductsPerType: 4, Seed: 1})
	g := oracleKG(tb, cat)
	return cat, NewNavigator(g.Freeze(), 1)
}

func TestRefineBroadQuery(t *testing.T) {
	_, nav := navWorld(t)
	sugs := nav.Refine("camping", 5)
	if len(sugs) == 0 {
		t.Fatal("no suggestions for 'camping'")
	}
	found := false
	for _, s := range sugs {
		if s.Label == "camping in the mountains" || s.Label == "lakeside camping" ||
			s.Label == "winter camping" {
			found = true
		}
		if s.Support <= 0 {
			t.Errorf("suggestion %q has no support", s.Label)
		}
	}
	if !found {
		t.Errorf("camping refinements missing: %+v", sugs)
	}
}

func TestRefineUnknownQuery(t *testing.T) {
	_, nav := navWorld(t)
	if sugs := nav.Refine("zzyzx", 5); len(sugs) != 0 {
		t.Errorf("unknown query produced %d suggestions", len(sugs))
	}
}

func TestRefineRespectsK(t *testing.T) {
	_, nav := navWorld(t)
	if sugs := nav.Refine("used", 2); len(sugs) > 2 {
		t.Errorf("k violated: %d", len(sugs))
	}
}

func TestMultiTurnSession(t *testing.T) {
	_, nav := navWorld(t)
	s := nav.StartSession("camping")
	opts := s.Options(5)
	if len(opts) == 0 {
		t.Fatal("no first-turn options")
	}
	s.Select(opts[0].Label)
	if s.Depth() != 1 {
		t.Errorf("depth = %d", s.Depth())
	}
	// Second turn must still produce options or a product link.
	second := s.Options(5)
	if len(second) == 0 && len(opts[0].Products) == 0 {
		t.Error("dead end after one refinement")
	}
}

func TestThreeLayerNavigationFlow(t *testing.T) {
	// The Figure 9 flow: broad query → intent refinement → product
	// discovery.
	cat := catalog.Generate(catalog.Config{ProductsPerType: 8, Seed: 1})
	g := oracleKG(t, cat)
	nav := NewNavigator(g.Freeze(), 1)

	sess := nav.StartSession("camping")
	opts := sess.Options(5)
	if len(opts) == 0 {
		t.Fatal("layer 1: no broad-concept refinements")
	}
	sess.Select(opts[0].Label)
	if len(opts[0].Products) == 0 {
		t.Fatal("layer 2: no products for refinement")
	}
	// In the oracle KG product labels are the product IDs.
	for _, id := range opts[0].Products {
		if _, ok := cat.ByID(id); !ok {
			t.Fatalf("layer 3: product %q not in the catalog", id)
		}
	}
}

func TestSuggestionsOrderedBySupport(t *testing.T) {
	_, nav := navWorld(t)
	sugs := nav.Refine("camping", 10)
	for i := 1; i < len(sugs); i++ {
		if sugs[i].Support > sugs[i-1].Support {
			t.Fatal("suggestions not sorted by support")
		}
	}
}

func TestABExperimentEndpoints(t *testing.T) {
	cat, nav := navWorld(t)
	cfg := DefaultABConfig()
	cfg.Visitors = 60000
	res := NewExperiment(cat, nav, cfg).Run()

	if res.ControlVisitors+res.TreatmentVisitors != cfg.Visitors {
		t.Fatal("visitor accounting broken")
	}
	treatedFrac := float64(res.TreatmentVisitors) / float64(cfg.Visitors)
	if treatedFrac < 0.08 || treatedFrac > 0.12 {
		t.Errorf("treatment fraction %.3f far from 0.10", treatedFrac)
	}

	lift := res.SalesLift()
	eng := res.EngagementRate()
	t.Logf("sales lift = %.4f (paper: +0.007), engagement = %.3f (paper: ~0.08)", lift, eng)
	if lift <= 0 {
		t.Errorf("sales lift %.4f should be positive", lift)
	}
	if lift > 0.15 {
		t.Errorf("sales lift %.4f implausibly large for a low-visibility widget", lift)
	}
	if eng <= 0.01 || eng > 0.30 {
		t.Errorf("engagement rate %.3f out of plausible band", eng)
	}
}

func TestABDeterministic(t *testing.T) {
	cat, nav := navWorld(t)
	cfg := DefaultABConfig()
	cfg.Visitors = 5000
	r1 := NewExperiment(cat, nav, cfg).Run()
	r2 := NewExperiment(cat, nav, cfg).Run()
	if r1 != r2 {
		t.Fatalf("experiment not deterministic: %+v vs %+v", r1, r2)
	}
}

func TestABZeroVisitors(t *testing.T) {
	cat, nav := navWorld(t)
	cfg := DefaultABConfig()
	cfg.Visitors = 0
	res := NewExperiment(cat, nav, cfg).Run()
	if res.SalesLift() != 0 || res.EngagementRate() != 0 {
		t.Error("zero-visitor metrics should be 0")
	}
}

func TestSearchResultsLexical(t *testing.T) {
	cat, nav := navWorld(t)
	e := NewExperiment(cat, nav, DefaultABConfig())
	results := e.searchResults("camping stove", 5)
	if len(results) == 0 {
		t.Fatal("no results")
	}
	if results[0].Type != "camping stove" {
		t.Errorf("top result type = %q", results[0].Type)
	}
	// Cache must return identical slice.
	again := e.searchResults("camping stove", 5)
	if len(again) != len(results) {
		t.Error("cache inconsistent")
	}
}
