package behavior

import (
	"math/rand"
	"testing"

	"cosmo/internal/catalog"
)

func testWorld(t *testing.T) (*catalog.Catalog, *Log) {
	t.Helper()
	c := catalog.Generate(catalog.Config{ProductsPerType: 4, Seed: 1})
	l := Simulate(c, Config{
		Seed: 2, CoBuyEvents: 5000, SearchEvents: 5000,
		NoiseRate: 0.25, BroadQueryRate: 0.4,
	})
	return c, l
}

func TestSimulateDeterministic(t *testing.T) {
	c := catalog.Generate(catalog.Config{ProductsPerType: 3, Seed: 1})
	cfg := Config{Seed: 5, CoBuyEvents: 500, SearchEvents: 500, NoiseRate: 0.2, BroadQueryRate: 0.3}
	a := Simulate(c, cfg)
	b := Simulate(c, cfg)
	if len(a.CoBuys) != len(b.CoBuys) || len(a.SearchBuys) != len(b.SearchBuys) {
		t.Fatal("simulation not deterministic in sizes")
	}
	for i := range a.CoBuys {
		if a.CoBuys[i] != b.CoBuys[i] {
			t.Fatalf("co-buy %d differs", i)
		}
	}
	for i := range a.SearchBuys {
		if a.SearchBuys[i] != b.SearchBuys[i] {
			t.Fatalf("search-buy %d differs", i)
		}
	}
}

func TestCoBuysOrderedAndValid(t *testing.T) {
	c, l := testWorld(t)
	if len(l.CoBuys) == 0 {
		t.Fatal("no co-buys")
	}
	for _, e := range l.CoBuys {
		if e.A >= e.B {
			t.Fatalf("pair not ordered: %s", e)
		}
		if _, ok := c.ByID(e.A); !ok {
			t.Fatalf("unknown product %s", e.A)
		}
		if _, ok := c.ByID(e.B); !ok {
			t.Fatalf("unknown product %s", e.B)
		}
		if e.Count <= 0 {
			t.Fatalf("bad count: %s", e)
		}
	}
}

func TestIntentionalCoBuysHaveGroundTruthReason(t *testing.T) {
	c, l := testWorld(t)
	intentional := 0
	for _, e := range l.CoBuys {
		if !e.Intentional {
			continue
		}
		intentional++
		if e.Intent.Tail == "" {
			t.Fatalf("intentional pair without intent: %s", e)
		}
		a, _ := c.ByID(e.A)
		b, _ := c.ByID(e.B)
		if !c.AreComplements(a.Type, b.Type) && len(c.AppendSharedIntents(nil, a, b)) == 0 {
			t.Fatalf("intentional pair %s/%s is neither complements nor intent-sharing", a.Type, b.Type)
		}
	}
	if intentional == 0 {
		t.Fatal("no intentional co-buys generated")
	}
}

func TestNoiseRateApproximatelyRespected(t *testing.T) {
	_, l := testWorld(t)
	noise := 0
	for _, e := range l.CoBuys {
		if !e.Intentional {
			noise++
		}
	}
	rate := float64(noise) / float64(len(l.CoBuys))
	// Aggregation merges repeated intentional pairs more often than noise
	// pairs, so the edge-level noise rate exceeds the event-level 25%;
	// it must stay well below 1 and above 0.
	if rate <= 0.05 || rate >= 0.95 {
		t.Errorf("noise rate %.2f implausible", rate)
	}
}

func TestSearchBuysValid(t *testing.T) {
	c, l := testWorld(t)
	if len(l.SearchBuys) == 0 {
		t.Fatal("no search-buys")
	}
	broad := 0
	for _, e := range l.SearchBuys {
		if e.Query == "" {
			t.Fatal("empty query")
		}
		if _, ok := c.ByID(e.ProductID); !ok {
			t.Fatalf("unknown product %s", e.ProductID)
		}
		if e.Clicks <= 0 {
			t.Fatalf("clicks must be positive: %+v", e)
		}
		if e.Broad {
			broad++
			if !e.Intentional {
				t.Fatalf("broad query must be intentional: %+v", e)
			}
		}
	}
	if broad == 0 {
		t.Error("no broad queries generated")
	}
}

func TestBroadQuery(t *testing.T) {
	in := catalog.Intent{Tail: "camping in the mountains"}
	if got := BroadQuery(in); got != "camping" {
		t.Errorf("BroadQuery = %q", got)
	}
	in = catalog.Intent{Tail: "attend a wedding party"}
	if got := BroadQuery(in); got != "attend" {
		t.Errorf("BroadQuery = %q", got)
	}
	in = catalog.Intent{Tail: "the"}
	if got := BroadQuery(in); got != "the" {
		t.Errorf("fallback BroadQuery = %q", got)
	}
}

func TestSpecificQuery(t *testing.T) {
	p := catalog.Product{Type: "air mattress"}
	in := catalog.Intent{Tail: "camping in the mountains"}
	if got := SpecificQuery(p, in, true); got != "camping air mattress" {
		t.Errorf("qualified = %q", got)
	}
	if got := SpecificQuery(p, in, false); got != "air mattress" {
		t.Errorf("unqualified = %q", got)
	}
}

func TestDegrees(t *testing.T) {
	_, l := testWorld(t)
	// Degrees must be consistent with the edge lists.
	coDeg := map[string]int{}
	for _, e := range l.CoBuys {
		coDeg[e.A]++
		coDeg[e.B]++
	}
	for id, d := range coDeg {
		if l.CoBuyDegree(id) != d {
			t.Fatalf("co-buy degree mismatch for %s: %d vs %d", id, l.CoBuyDegree(id), d)
		}
	}
	qDeg := map[string]int{}
	for _, e := range l.SearchBuys {
		qDeg[e.Query]++
	}
	for q, d := range qDeg {
		if l.QueryDegree(q) != d {
			t.Fatalf("query degree mismatch for %q", q)
		}
	}
	if l.CoBuyDegree("UNKNOWN") != 0 || l.QueryDegree("unknown query") != 0 {
		t.Error("unknown keys should have zero degree")
	}
}

func TestSimulateSessions(t *testing.T) {
	c := catalog.Generate(catalog.Config{ProductsPerType: 4, Seed: 1})
	sessions := SimulateSessions(c, SessionConfig{
		Seed: 3, Sessions: 200, Category: catalog.Electronics,
		MeanLength: 8, QueryChurn: 0.5,
	})
	if len(sessions) != 200 {
		t.Fatalf("got %d sessions", len(sessions))
	}
	for _, s := range sessions {
		if len(s.Items) < 2 {
			t.Fatalf("session too short: %d", len(s.Items))
		}
		if len(s.Items) != len(s.Queries) {
			t.Fatal("items and queries must align")
		}
		if s.Category != catalog.Electronics {
			t.Fatal("wrong category")
		}
		for _, id := range s.Items {
			p, ok := c.ByID(id)
			if !ok {
				t.Fatalf("unknown item %s", id)
			}
			if p.Category != catalog.Electronics {
				t.Fatalf("item %s from wrong category %s", id, p.Category)
			}
		}
	}
}

func TestSessionQueryChurnEffect(t *testing.T) {
	c := catalog.Generate(catalog.Config{ProductsPerType: 4, Seed: 1})
	uniqueQueries := func(churn float64) float64 {
		sessions := SimulateSessions(c, SessionConfig{
			Seed: 3, Sessions: 300, Category: catalog.Electronics,
			MeanLength: 10, QueryChurn: churn,
		})
		total := 0.0
		for _, s := range sessions {
			seen := map[string]bool{}
			for _, q := range s.Queries {
				seen[q] = true
			}
			total += float64(len(seen))
		}
		return total / float64(len(sessions))
	}
	low := uniqueQueries(0.05)
	high := uniqueQueries(0.6)
	if high <= low {
		t.Errorf("higher churn should give more unique queries: %.2f vs %.2f", high, low)
	}
}

func TestSimulateSessionsEmptyCases(t *testing.T) {
	c := catalog.Generate(catalog.Config{ProductsPerType: 2, Seed: 1})
	if s := SimulateSessions(c, SessionConfig{Sessions: 0, Category: catalog.Electronics, MeanLength: 5}); s != nil {
		t.Error("zero sessions should return nil")
	}
	if s := SimulateSessions(c, SessionConfig{Sessions: 5, Category: catalog.Category("nope"), MeanLength: 5}); s != nil {
		t.Error("unknown category should return nil")
	}
}

// refPickProduct is the previous pickProduct, which re-summed the
// popularity of ps on every pick.
func refPickProduct(rng *rand.Rand, ps []catalog.Product) catalog.Product {
	total := 0.0
	for i := range ps {
		total += ps[i].Popularity
	}
	x := rng.Float64() * total
	for i := range ps {
		x -= ps[i].Popularity
		if x <= 0 {
			return ps[i]
		}
	}
	return ps[len(ps)-1]
}

// TestPickProductMatchesReference: a total summed once, in the same
// order, picks what re-summing on every pick did.
func TestPickProductMatchesReference(t *testing.T) {
	c := catalog.Generate(catalog.Config{ProductsPerType: 8, Seed: 1})
	all := c.Products()
	total := popularity(all)
	rng, ref := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		if got, want := pickProduct(rng, all, total), refPickProduct(ref, all); got.ID != want.ID {
			t.Fatalf("pick %d: %s, reference %s", i, got.ID, want.ID)
		}
	}
}
