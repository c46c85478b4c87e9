package kg

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"cosmo/internal/catalog"
	"cosmo/internal/know"
	"cosmo/internal/relations"
)

func searchCand(id int, query, product, tail string, rel relations.Relation) know.Candidate {
	return know.Candidate{
		ID: id, Behavior: know.SearchBuy, Domain: catalog.Sports,
		Query: query, ProductA: product,
		Relation: rel, Tail: tail, Text: relations.Verbalize(rel, tail),
		PlausibleScore: 0.9, TypicalScore: 0.8,
	}
}

func coBuyCand(id int, a, b, tail string, rel relations.Relation) know.Candidate {
	return know.Candidate{
		ID: id, Behavior: know.CoBuy, Domain: catalog.Sports,
		ProductA: a, ProductB: b,
		Relation: rel, Tail: tail, Text: relations.Verbalize(rel, tail),
		PlausibleScore: 0.7, TypicalScore: 0.6,
	}
}

func TestAddAssertionSearchBuy(t *testing.T) {
	g := New()
	c := searchCand(1, "camping", "P000001", "camping in the mountains", relations.UsedForEve)
	if err := g.AddAssertion(c); err != nil {
		t.Fatal(err)
	}
	// Query node, product node, intention node.
	if g.NumNodes() != 3 {
		t.Errorf("nodes = %d, want 3", g.NumNodes())
	}
	// Query->intent and product->intent edges.
	if g.NumEdges() != 2 {
		t.Errorf("edges = %d, want 2", g.NumEdges())
	}
	es := g.Freeze().IntentionsFor(QueryID("camping")).Edges()
	if len(es) != 1 || es[0].Relation != relations.UsedForEve {
		t.Fatalf("query edges = %+v", es)
	}
}

func TestAddAssertionCoBuy(t *testing.T) {
	g := New()
	c := coBuyCand(1, "P1", "P2", "camping in the mountains", relations.UsedForEve)
	if err := g.AddAssertion(c); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Errorf("edges = %d, want 2 (both products link to intention)", g.NumEdges())
	}
	tail := IntentionID(relations.UsedForEve, "camping in the mountains")
	if n := len(newOracle(g).edgesTo(tail)); n != 2 {
		t.Errorf("intention has %d incoming edges, want 2", n)
	}
}

func TestAddAssertionRejectsUnparsed(t *testing.T) {
	g := New()
	if err := g.AddAssertion(know.Candidate{ID: 1}); err == nil {
		t.Error("unparsed candidate should error")
	}
}

func TestAddEdgeUnknownNodes(t *testing.T) {
	g := New()
	err := g.AddEdge(Edge{Head: "nope", Relation: relations.IsA, Tail: "also nope"})
	if err == nil {
		t.Error("edge on unknown nodes should error")
	}
	g.AddNode(Node{ID: "h", Type: NodeProduct})
	if err := g.AddEdge(Edge{Head: "h", Relation: relations.IsA, Tail: "t"}); err == nil {
		t.Error("edge on unknown tail should error")
	}
}

func TestEdgeMerging(t *testing.T) {
	g := New()
	c := searchCand(1, "camping", "P1", "camping", relations.UsedForEve)
	if err := g.AddAssertion(c); err != nil {
		t.Fatal(err)
	}
	c2 := c
	c2.PlausibleScore = 0.99
	c2.TypicalScore = 0.1
	if err := g.AddAssertion(c2); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("edges = %d, duplicates must merge", g.NumEdges())
	}
	es := g.Freeze().IntentionsFor(QueryID("camping")).Edges()
	if es[0].Support != 2 {
		t.Errorf("support = %d, want 2", es[0].Support)
	}
	if es[0].PlausibleScore != 0.99 {
		t.Errorf("plausible = %v, want max 0.99", es[0].PlausibleScore)
	}
	if es[0].TypicalScore != 0.8 {
		t.Errorf("typical = %v, want max 0.8", es[0].TypicalScore)
	}
}

func buildTestGraph(t *testing.T) *Graph {
	t.Helper()
	g := New()
	cands := []know.Candidate{
		searchCand(1, "camping", "P1", "camping", relations.UsedForEve),
		searchCand(2, "camping tent", "P1", "winter camping", relations.UsedForEve),
		searchCand(3, "boots", "P2", "winter camping", relations.UsedForEve),
		searchCand(4, "snacks", "P3", "holding snacks", relations.CapableOf),
		coBuyCand(5, "P1", "P2", "camping", relations.UsedForEve),
		coBuyCand(6, "P4", "P5", "lakeside camping", relations.UsedForEve),
	}
	for _, c := range cands {
		if err := g.AddAssertion(c); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// TestIndexes holds ComputeStats' per-domain counts to the oracle's
// naive count over Edges().
func TestIndexes(t *testing.T) {
	g := buildTestGraph(t)
	s := g.Freeze()
	if got, want := s.ComputeStats(), newOracle(g).stats(); !reflect.DeepEqual(got, want) {
		t.Errorf("stats = %+v, want %+v", got, want)
	}
	if s.NumRelations() != 2 {
		t.Errorf("relations = %d, want 2", s.NumRelations())
	}
}

func TestIntentionsForSorted(t *testing.T) {
	g := New()
	a := searchCand(1, "camping", "P1", "alpha", relations.UsedForEve)
	a.TypicalScore = 0.2
	b := searchCand(2, "camping", "P1", "beta", relations.UsedForEve)
	b.TypicalScore = 0.9
	if err := g.AddAssertion(a); err != nil {
		t.Fatal(err)
	}
	if err := g.AddAssertion(b); err != nil {
		t.Fatal(err)
	}
	es := g.Freeze().IntentionsFor(QueryID("camping")).Edges()
	if len(es) != 2 {
		t.Fatalf("got %d edges", len(es))
	}
	if es[0].TypicalScore < es[1].TypicalScore {
		t.Error("not sorted by typicality")
	}
}

func TestComputeStats(t *testing.T) {
	g := buildTestGraph(t)
	s := g.Freeze().ComputeStats()
	if s.Edges != g.NumEdges() || s.Nodes != g.NumNodes() {
		t.Error("stats disagree with counters")
	}
	ds := s.PerDomain[catalog.Sports]
	if ds.CoBuyEdges == 0 || ds.SearchBuyEdges == 0 {
		t.Errorf("per-domain stats = %+v", ds)
	}
	if ds.CoBuyEdges+ds.SearchBuyEdges != s.Edges {
		t.Error("domain edges don't add up")
	}
}

func TestHierarchy(t *testing.T) {
	g := buildTestGraph(t)
	roots := g.Freeze().BuildHierarchy(1)
	if len(roots) == 0 {
		t.Fatal("no hierarchy roots")
	}
	// "camping" must be a root with children "winter camping" and
	// "lakeside camping".
	var camping *HierarchyNode
	for _, r := range roots {
		if r.Label == "camping" {
			camping = r
		}
	}
	if camping == nil {
		t.Fatal("'camping' not a hierarchy root")
	}
	childLabels := map[string]bool{}
	for _, c := range camping.Children {
		childLabels[c.Label] = true
	}
	if !childLabels["winter camping"] || !childLabels["lakeside camping"] {
		t.Errorf("camping children = %v", childLabels)
	}
	if camping.Size() < 3 {
		t.Errorf("camping subtree size = %d", camping.Size())
	}
	rendered := camping.Render(2)
	if !strings.Contains(rendered, "winter camping") {
		t.Errorf("render missing child:\n%s", rendered)
	}
}

func TestHierarchyMinSupport(t *testing.T) {
	g := buildTestGraph(t)
	roots := g.Freeze().BuildHierarchy(100)
	if len(roots) != 0 {
		t.Errorf("min support 100 should prune everything, got %d roots", len(roots))
	}
}

func TestWriteJSONLAndTSV(t *testing.T) {
	g := buildTestGraph(t)
	s := g.Freeze()
	var jbuf bytes.Buffer
	if err := s.WriteJSONL(&jbuf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(jbuf.String(), "\n")
	if lines != g.NumEdges() {
		t.Errorf("jsonl lines = %d, want %d", lines, g.NumEdges())
	}
	var tbuf bytes.Buffer
	if err := s.WriteTSV(&tbuf); err != nil {
		t.Fatal(err)
	}
	tlines := strings.Count(tbuf.String(), "\n")
	if tlines != g.NumEdges()+1 { // +1 header
		t.Errorf("tsv lines = %d, want %d", tlines, g.NumEdges()+1)
	}
}

// TestConcurrentReads runs the builder's reads and Freeze beside a
// writer; under -race it proves the RWMutex covers every path.
func TestConcurrentReads(t *testing.T) {
	g := buildTestGraph(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				g.Node(QueryID("camping"))
				g.Nodes()
				g.Edges()
				g.NumEdges()
				if s := g.Freeze(); s.NumEdges() == 0 {
					t.Error("frozen snapshot lost the edges")
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		if err := g.AddAssertion(searchCand(100+i, fmt.Sprintf("query %d", i), "P9", "late intent", relations.UsedForEve)); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}

func BenchmarkAddAssertion(b *testing.B) {
	g := New()
	c := searchCand(1, "camping", "P1", "camping in the mountains", relations.UsedForEve)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.ID = i
		if err := g.AddAssertion(c); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAddAssertionAllocBudget: an assertion whose nodes and edges the
// graph already holds is looked up through the graph's scratch ID buffer
// and merged in place, allocating nothing, for either behavior.
func TestAddAssertionAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocation")
	}
	g := New()
	cands := []know.Candidate{
		searchCand(1, "camping", "P000001", "camping in the mountains", relations.UsedForEve),
		coBuyCand(2, "P000001", "P000002", "camping in the mountains", relations.UsedForEve),
	}
	for _, c := range cands {
		if err := g.AddAssertion(c); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			if err := g.AddAssertion(c); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("re-adding %s assertion %d: %v allocs, want 0", c.Behavior, c.ID, allocs)
		}
	}
	for _, e := range g.Edges() {
		// p:P000001 heads both behaviors' edge to the tail.
		if want := map[string]int{"q:camping": 102, "p:P000001": 204, "p:P000002": 102}[e.Head]; e.Support != want {
			t.Errorf("edge %s -> %s support %d, want %d", e.Head, e.Tail, e.Support, want)
		}
	}
}
