package kg

import (
	"testing"

	"cosmo/internal/relations"
)

func TestCanonicalizeMergesInflectedTails(t *testing.T) {
	g := New()
	// Two inflected variants of the same fact, plus a distinct fact.
	mustAdd := func(id int, q, p, tail string) {
		t.Helper()
		if err := g.AddAssertion(searchCand(id, q, p, tail, relations.UsedForEve)); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(1, "dog", "P1", "walking the dog")
	mustAdd(2, "dog", "P2", "walk the dogs")
	mustAdd(3, "dog", "P3", "walking the dog") // boosts variant 1's support
	mustAdd(4, "cat", "P4", "feeding the cat")

	c := g.Canonicalize()
	// The two walking variants merge into one intention node.
	intentions := 0
	for _, n := range c.Nodes() {
		if n.Type == NodeIntention {
			intentions++
		}
	}
	if intentions != 2 {
		t.Fatalf("intentions after canonicalization = %d, want 2", intentions)
	}
	// The higher-support surface survives.
	want := IntentionID(relations.UsedForEve, "walking the dog")
	if _, ok := c.Node(want); !ok {
		t.Errorf("representative %q missing", want)
	}
	if _, ok := c.Node(IntentionID(relations.UsedForEve, "walk the dogs")); ok {
		t.Error("merged variant still present")
	}
	// Edges re-point at the representative; supports merge.
	es := newOracle(c).edgesTo(want)
	if len(es) < 3 { // q:dog + three product heads, minus duplicates
		t.Errorf("merged intention has %d incoming edges", len(es))
	}
}

func TestCanonicalizeKeepsRelationsApart(t *testing.T) {
	g := New()
	if err := g.AddAssertion(searchCand(1, "q", "P1", "holding snacks", relations.CapableOf)); err != nil {
		t.Fatal(err)
	}
	if err := g.AddAssertion(searchCand(2, "q", "P2", "holding snacks", relations.UsedForFunc)); err != nil {
		t.Fatal(err)
	}
	c := g.Canonicalize()
	intentions := 0
	for _, n := range c.Nodes() {
		if n.Type == NodeIntention {
			intentions++
		}
	}
	if intentions != 2 {
		t.Fatalf("same tail under different relations must stay apart; got %d", intentions)
	}
}

func TestCanonicalizeIdempotent(t *testing.T) {
	g := buildTestGraph(t)
	once := g.Canonicalize()
	twice := once.Canonicalize()
	if once.NumEdges() != twice.NumEdges() || once.NumNodes() != twice.NumNodes() {
		t.Errorf("canonicalization not idempotent: %d/%d vs %d/%d",
			once.NumNodes(), once.NumEdges(), twice.NumNodes(), twice.NumEdges())
	}
}

func TestCanonicalizePreservesOriginal(t *testing.T) {
	g := buildTestGraph(t)
	before := g.NumNodes()
	_ = g.Canonicalize()
	if g.NumNodes() != before {
		t.Error("Canonicalize mutated the receiver")
	}
}

func TestCanonicalizeEmptyGraph(t *testing.T) {
	c := New().Canonicalize()
	if c.NumNodes() != 0 || c.NumEdges() != 0 {
		t.Error("empty graph should canonicalize to empty")
	}
}
