package catalog

import (
	"strings"
	"testing"

	"cosmo/internal/relations"
)

func TestGenerateCoversAllCategories(t *testing.T) {
	c := Generate(DefaultConfig())
	for _, cat := range Categories() {
		if len(c.InCategory(cat)) == 0 {
			t.Errorf("category %q has no products", cat)
		}
		if len(c.TypesInCategory(cat)) == 0 {
			t.Errorf("category %q has no product types", cat)
		}
	}
	if got := len(Categories()); got != 18 {
		t.Fatalf("got %d categories, paper has 18", got)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{ProductsPerType: 5, Seed: 42})
	b := Generate(Config{ProductsPerType: 5, Seed: 42})
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Products() {
		if a.Products()[i] != b.Products()[i] {
			t.Fatalf("product %d differs: %+v vs %+v", i, a.Products()[i], b.Products()[i])
		}
	}
}

func TestProductsPerType(t *testing.T) {
	c := Generate(Config{ProductsPerType: 7, Seed: 1})
	for _, tn := range c.Types() {
		if got := len(c.OfType(tn)); got != 7 {
			t.Errorf("type %q has %d products, want 7", tn, got)
		}
	}
}

func TestByID(t *testing.T) {
	c := Generate(Config{ProductsPerType: 3, Seed: 1})
	p := c.Products()[0]
	got, ok := c.ByID(p.ID)
	if !ok || got.ID != p.ID {
		t.Fatalf("ByID(%q) = %+v, %v", p.ID, got, ok)
	}
	if _, ok := c.ByID("NOPE"); ok {
		t.Error("unknown ID should not resolve")
	}
}

func TestEveryTypeHasIntents(t *testing.T) {
	c := Generate(Config{ProductsPerType: 1, Seed: 1})
	for _, tn := range c.Types() {
		pt, ok := c.Type(tn)
		if !ok {
			t.Fatalf("type %q missing", tn)
		}
		if len(pt.Intents) == 0 {
			t.Errorf("type %q has no intents", tn)
		}
		for _, in := range pt.Intents {
			if !relations.Valid(in.Relation) {
				t.Errorf("type %q intent has invalid relation %q", tn, in.Relation)
			}
			if strings.TrimSpace(in.Tail) == "" {
				t.Errorf("type %q has empty intent tail", tn)
			}
		}
	}
}

func TestComplementsResolve(t *testing.T) {
	c := Generate(Config{ProductsPerType: 1, Seed: 1})
	for _, tn := range c.Types() {
		pt, _ := c.Type(tn)
		for _, comp := range pt.Complements {
			if _, ok := c.Type(comp); !ok {
				t.Errorf("type %q lists unknown complement %q", tn, comp)
			}
		}
	}
}

func TestComplementsShareIntent(t *testing.T) {
	// The world invariant: declared complements share at least one
	// ground-truth intent, so co-buys have a discoverable reason.
	c := Generate(Config{ProductsPerType: 2, Seed: 1})
	for _, tn := range c.Types() {
		pt, _ := c.Type(tn)
		for _, comp := range pt.Complements {
			a := c.OfType(tn)[0]
			b := c.OfType(comp)[0]
			shared := c.AppendSharedIntents(nil, a, b)
			hasComplementIntent := false
			// A USED_WITH intent pointing at the partner type also
			// counts as a reason.
			for _, in := range c.IntentsOf(a) {
				if in.Relation == relations.UsedWith && strings.Contains(in.Tail, comp) {
					hasComplementIntent = true
				}
			}
			for _, in := range c.IntentsOf(b) {
				if in.Relation == relations.UsedWith && strings.Contains(in.Tail, tn) {
					hasComplementIntent = true
				}
			}
			if len(shared) == 0 && !hasComplementIntent {
				t.Errorf("complements %q and %q share no intent", tn, comp)
			}
		}
	}
}

func TestAreComplements(t *testing.T) {
	c := Generate(Config{ProductsPerType: 1, Seed: 1})
	if !c.AreComplements("tent", "sleeping bag") {
		t.Error("tent and sleeping bag should be complements")
	}
	if !c.AreComplements("sleeping bag", "tent") {
		t.Error("complement check should be symmetric")
	}
	if c.AreComplements("tent", "fountain pen") {
		t.Error("tent and fountain pen should not be complements")
	}
}

func TestTitlesContainTypeAndBrand(t *testing.T) {
	c := Generate(Config{ProductsPerType: 3, Seed: 9})
	for _, p := range c.Products() {
		if !strings.Contains(p.Title, p.Type) {
			t.Errorf("title %q missing type %q", p.Title, p.Type)
		}
		if !strings.Contains(p.Title, p.Brand) {
			t.Errorf("title %q missing brand %q", p.Title, p.Brand)
		}
	}
}

func TestPopularityDecreasesWithinType(t *testing.T) {
	c := Generate(Config{ProductsPerType: 5, Seed: 1})
	for _, tn := range c.Types() {
		ps := c.OfType(tn)
		for i := 1; i < len(ps); i++ {
			if ps[i].Popularity > ps[i-1].Popularity {
				t.Fatalf("type %q popularity not decreasing", tn)
			}
		}
	}
}

func TestSharedIntentsSymmetric(t *testing.T) {
	c := Generate(Config{ProductsPerType: 1, Seed: 1})
	a := c.OfType("tent")[0]
	b := c.OfType("sleeping bag")[0]
	if len(c.AppendSharedIntents(nil, a, b)) != len(c.AppendSharedIntents(nil, b, a)) {
		t.Error("AppendSharedIntents should be symmetric in count")
	}
	if len(c.AppendSharedIntents(nil, a, b)) == 0 {
		t.Error("tent and sleeping bag should share the camping intent")
	}
}

func TestIntentSurface(t *testing.T) {
	in := Intent{Relation: relations.CapableOf, Tail: "holding snacks"}
	if got := in.Surface(); got != "capable of holding snacks" {
		t.Errorf("Surface() = %q", got)
	}
}

func TestWorldScale(t *testing.T) {
	c := Generate(Config{ProductsPerType: 1, Seed: 1})
	if n := len(c.Types()); n < 100 {
		t.Errorf("world has only %d product types; want >= 100 for diversity", n)
	}
}
