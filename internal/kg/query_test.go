package kg

import (
	"testing"

	"cosmo/internal/relations"
)

func TestRelatedProducts(t *testing.T) {
	g := New()
	// P1 and P2 share "camping"; P3 is unrelated.
	for _, c := range []struct {
		a, b string
		tail string
	}{
		{"P1", "P2", "camping"},
		{"P3", "P4", "office work"},
	} {
		if err := g.AddAssertion(coBuyCand(1, c.a, c.b, c.tail, relations.UsedForEve)); err != nil {
			t.Fatal(err)
		}
	}
	rel := g.Freeze().RelatedProducts(ProductID("P1"), 5)
	if len(rel) != 1 {
		t.Fatalf("related = %+v", rel)
	}
	if rel[0].ProductID != ProductID("P2") {
		t.Errorf("related product = %s", rel[0].ProductID)
	}
	if len(rel[0].Via) != 1 || rel[0].Via[0] != "camping" {
		t.Errorf("via = %v", rel[0].Via)
	}
	if rel[0].Score <= 0 {
		t.Errorf("score = %v", rel[0].Score)
	}
}

func TestRelatedProductsRanking(t *testing.T) {
	g := New()
	// P1-P2 share two intents; P1-P5 share one.
	mustAdd := func(a, b, tail string) {
		t.Helper()
		if err := g.AddAssertion(coBuyCand(1, a, b, tail, relations.UsedForEve)); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd("P1", "P2", "camping")
	mustAdd("P1", "P2", "hiking")
	mustAdd("P1", "P5", "camping")
	rel := g.Freeze().RelatedProducts(ProductID("P1"), 5)
	if len(rel) != 2 {
		t.Fatalf("related = %+v", rel)
	}
	if rel[0].ProductID != ProductID("P2") {
		t.Errorf("strongest related = %s, want P2", rel[0].ProductID)
	}
	if rel[0].Score <= rel[1].Score {
		t.Error("ranking not by score")
	}
}

func TestRelatedProductsK(t *testing.T) {
	g := New()
	for _, other := range []string{"P2", "P3", "P4", "P5"} {
		if err := g.AddAssertion(coBuyCand(1, "P1", other, "camping", relations.UsedForEve)); err != nil {
			t.Fatal(err)
		}
	}
	if rel := g.Freeze().RelatedProducts(ProductID("P1"), 2); len(rel) != 2 {
		t.Errorf("k cap violated: %d", len(rel))
	}
	if rel := g.Freeze().RelatedProducts("p:NOPE", 2); len(rel) != 0 {
		t.Errorf("unknown head should have no relations: %+v", rel)
	}
}
