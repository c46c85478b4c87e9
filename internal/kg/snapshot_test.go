package kg

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"cosmo/internal/catalog"
	"cosmo/internal/know"
	"cosmo/internal/relations"
	"cosmo/internal/textproc"
)

// randomGraph builds a randomized graph whose shape stresses every
// equivalence dimension: duplicate assertions (support merging), score
// ties (tie-break ordering), tails shared across relations (label
// collisions in via sets and the hierarchy), and both behavior types.
func randomGraph(t testing.TB, rng *rand.Rand, nCands int) *Graph {
	t.Helper()
	g := New()
	rels := []relations.Relation{
		relations.UsedForEve, relations.CapableOf, relations.UsedBy,
		relations.IsA, relations.UsedInLoc,
	}
	domains := []catalog.Category{catalog.Sports, catalog.HomeKitchen, catalog.Electronics}
	tails := []string{
		"camping", "winter camping", "lakeside camping", "holding snacks",
		"office work", "walking the dog", "camping", "morning runs",
	}
	// Quantized scores generate deliberate ties; a zero typicality takes
	// the related walk's floor weight.
	scores := []float64{0, 0.2, 0.4, 0.6, 0.8, 0.8, 1.0}
	for i := 0; i < nCands; i++ {
		c := know.Candidate{
			ID:             i,
			Domain:         domains[rng.Intn(len(domains))],
			Relation:       rels[rng.Intn(len(rels))],
			Tail:           tails[rng.Intn(len(tails))],
			PlausibleScore: scores[rng.Intn(len(scores))],
			TypicalScore:   scores[rng.Intn(len(scores))],
		}
		if rng.Intn(2) == 0 {
			c.Behavior = know.SearchBuy
			c.Query = fmt.Sprintf("query %d", rng.Intn(12))
			c.ProductA = fmt.Sprintf("P%02d", rng.Intn(20))
		} else {
			c.Behavior = know.CoBuy
			c.ProductA = fmt.Sprintf("P%02d", rng.Intn(20))
			c.ProductB = fmt.Sprintf("P%02d", rng.Intn(20))
		}
		if err := g.AddAssertion(c); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// interleavedGraph is randomGraph's shape built through AddNode and
// AddEdge, with IDs whose sort order interleaves the head types:
// products "m:…" and "z:…" around queries "n:…". A back row that holds
// a "z:" product and a query is where the byTail order, products
// first, differs from plain head-ID order; AddAssertion's "p:"/"q:" IDs
// never produce one.
func interleavedGraph(t testing.TB, rng *rand.Rand, nEdges int) *Graph {
	t.Helper()
	g := New()
	rels := []relations.Relation{relations.UsedForEve, relations.CapableOf, relations.UsedBy}
	domains := []catalog.Category{catalog.Sports, catalog.HomeKitchen}
	tails := []string{"camping", "winter camping", "holding snacks", "office work", "camping"}
	scores := []float64{0, 0.2, 0.4, 0.6, 0.8, 0.8, 1.0}
	for i := 0; i < nEdges; i++ {
		head := Node{ID: fmt.Sprintf("n:q%02d", rng.Intn(10)), Type: NodeQuery}
		behavior := know.SearchBuy
		if rng.Intn(3) > 0 {
			head = Node{ID: fmt.Sprintf("%c:P%02d", "mz"[rng.Intn(2)], rng.Intn(12)), Type: NodeProduct}
			behavior = know.CoBuy
		}
		head.Label = "label of " + head.ID
		rel, label := rels[rng.Intn(len(rels))], tails[rng.Intn(len(tails))]
		tail := Node{ID: IntentionID(rel, label), Type: NodeIntention, Label: label}
		g.AddNode(head)
		g.AddNode(tail)
		err := g.AddEdge(Edge{Head: head.ID, Relation: rel, Tail: tail.ID, Behavior: behavior,
			Domain: domains[rng.Intn(len(domains))], PlausibleScore: scores[rng.Intn(len(scores))],
			TypicalScore: scores[rng.Intn(len(scores))], Support: 1 + rng.Intn(3)})
		if err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// reordersBackRows reports whether some byTail row of s is not in
// head-ID order, that is, whether the product-first key moved an entry.
func reordersBackRows(s *Snapshot) bool {
	for r := int32(0); r < int32(len(s.ids)); r++ {
		row := s.byTail.row(r)
		for i := 1; i < len(row); i++ {
			if s.eHead[row[i-1]] > s.eHead[row[i]] {
				return true
			}
		}
	}
	return false
}

// mapFrozen writes s to a file and maps it back; the mapping is closed
// when the test ends.
func mapFrozen(t *testing.T, s *Snapshot) *Snapshot {
	t.Helper()
	mapped, err := MapSnapshotFile(writeFile(t, s))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mapped.Close() })
	return mapped
}

// relatedKs are the k values the related oracle checks for a head with
// n candidates: serving sizes, both sides of n, and unbounded.
func relatedKs(n int) []int {
	ks := []int{}
	for _, k := range []int{1, 3, 10, n - 1, n, n + 1, 1 << 20} {
		if k >= 1 {
			ks = append(ks, k)
		}
	}
	return ks
}

// oracle answers every snapshot query the naive way, from g.Edges()
// and g.Nodes() alone: filter the key-sorted edge list, aggregate in
// maps, sort once. It shares no interning, CSR row, pooled scratch,
// top-k selection or per-tail aggregation with the Snapshot, so the
// differential tests below check the frozen layout rather than restate
// it.
type oracle struct {
	nodes map[string]Node
	edges []Edge // key-sorted, as g.Edges() returns them
}

func newOracle(g *Graph) *oracle {
	o := &oracle{nodes: map[string]Node{}, edges: g.Edges()}
	for _, n := range g.Nodes() {
		o.nodes[n.ID] = n
	}
	return o
}

// filter returns the edges keep accepts, in key-sorted order.
func (o *oracle) filter(keep func(Edge) bool) []Edge {
	out := []Edge{}
	for _, e := range o.edges {
		if keep(e) {
			out = append(out, e)
		}
	}
	return out
}

// intentionsFor is IntentionsFor, the byHead row: the head's edges by
// descending typicality, then tail ID, then relation.
func (o *oracle) intentionsFor(head string) []Edge {
	es := o.filter(func(e Edge) bool { return e.Head == head })
	sort.Slice(es, func(i, j int) bool {
		if es[i].TypicalScore != es[j].TypicalScore {
			return es[i].TypicalScore > es[j].TypicalScore
		}
		if es[i].Tail != es[j].Tail {
			return es[i].Tail < es[j].Tail
		}
		return es[i].Relation < es[j].Relation
	})
	return es
}

// edgesTo is the byTail row RelatedProducts walks back: the tail's
// edges with product heads first, then by head ID, then relation.
func (o *oracle) edgesTo(tail string) []Edge {
	es := o.filter(func(e Edge) bool { return e.Tail == tail })
	sort.Slice(es, func(i, j int) bool {
		pi, pj := o.nodes[es[i].Head].Type == NodeProduct, o.nodes[es[j].Head].Type == NodeProduct
		if pi != pj {
			return pi
		}
		if es[i].Head != es[j].Head {
			return es[i].Head < es[j].Head
		}
		return es[i].Relation < es[j].Relation
	})
	return es
}

// related is RelatedProducts with no pooling and no top-k: score every
// candidate in maps, sort them all, cut to k. It keeps only the
// documented accumulation order — first hop in IntentionsFor order, back
// edges by (head, relation) — because float sums are only bitwise
// reproducible in a fixed order.
func (o *oracle) related(head string, k int) []Related {
	score := map[string]float64{}
	via := map[string]map[string]bool{}
	for _, e := range o.intentionsFor(head) {
		for _, b := range o.edgesTo(e.Tail) {
			if b.Head == head || o.nodes[b.Head].Type != NodeProduct {
				continue
			}
			w := e.TypicalScore * b.TypicalScore * float64(min(e.Support, b.Support))
			if w <= 0 {
				w = 0.01
			}
			score[b.Head] += w
			if via[b.Head] == nil {
				via[b.Head] = map[string]bool{}
			}
			via[b.Head][o.nodes[e.Tail].Label] = true
		}
	}
	out := []Related{}
	for id, sc := range score {
		labels := []string{}
		for l := range via[id] {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		out = append(out, Related{ProductID: id, Label: o.nodes[id].Label, Score: sc, Via: labels})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].ProductID < out[j].ProductID
	})
	return out[:min(k, len(out))]
}

// stats is ComputeStats counted edge by edge.
func (o *oracle) stats() Stats {
	st := Stats{Nodes: len(o.nodes), Edges: len(o.edges), PerDomain: map[catalog.Category]DomainStats{}}
	rels := map[relations.Relation]bool{}
	for _, e := range o.edges {
		rels[e.Relation] = true
		ds := st.PerDomain[e.Domain]
		if e.Behavior == know.SearchBuy {
			ds.SearchBuyEdges++
		} else {
			ds.CoBuyEdges++
		}
		st.PerDomain[e.Domain] = ds
	}
	st.Relations, st.Domains = len(rels), len(st.PerDomain)
	return st
}

// hierarchy aggregates each intention tail's support, content stems and
// product labels from the graph's edges and assembles the forest.
func (o *oracle) hierarchy(minSupport int) []*HierarchyNode {
	byTail := map[string]*tailInfo{}
	for _, e := range o.edges {
		in := byTail[e.Tail]
		if in == nil {
			label := o.nodes[e.Tail].Label
			in = &tailInfo{id: e.Tail, label: label, tokens: map[string]bool{}, products: map[string]bool{}}
			for _, tok := range textproc.ContentStems(label) {
				in.tokens[tok] = true
			}
			byTail[e.Tail] = in
		}
		in.count += e.Support
		if h := o.nodes[e.Head]; h.Type == NodeProduct {
			in.products[h.Label] = true
		}
	}
	return assembleHierarchy(byTail, minSupport)
}

// rowEdges materializes node id's row of the CSR index c (s.byHead or
// s.byTail), so the tests pin the adjacency order the walks read with
// no query in between. An unknown id has an empty row.
func rowEdges(s *Snapshot, c csr, id string) []Edge {
	out := []Edge{}
	sym, ok := symOf(s, id)
	if !ok {
		return out
	}
	for _, e := range c.row(sym) {
		out = append(out, s.edgeAt(e))
	}
	return out
}

// TestSnapshotEquivalence is the randomized property test proving the
// frozen read path agrees with the naive oracle on every query and on
// both CSR indexes row by row — including tie-break ordering for every
// order-specified row and bitwise score equality for RelatedProducts —
// on a Freeze snapshot and on the same snapshot read and mapped back.
// The interleaved trials use interleavedGraph, where products and
// queries interleave in ID order, and require some back row it
// reorders.
func TestSnapshotEquivalence(t *testing.T) {
	for _, c := range []struct {
		name   string
		trials int
		build  func(testing.TB, *rand.Rand, int) *Graph
	}{{"trial", 20, randomGraph}, {"interleaved", 10, interleavedGraph}} {
		for trial := 0; trial < c.trials; trial++ {
			t.Run(fmt.Sprintf("%s%02d", c.name, trial), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(1000 + trial)))
				g := c.build(t, rng, 40+rng.Intn(260))
				frozen := g.Freeze()
				if c.name == "interleaved" && !reordersBackRows(frozen) {
					t.Fatal("no byTail row puts a product ahead of a query with a lower ID")
				}
				path := writeFile(t, frozen)
				read, err := ReadSnapshotFile(path)
				if err != nil {
					t.Fatal(err)
				}
				mapped, err := MapSnapshotFile(path)
				if err != nil {
					t.Fatal(err)
				}
				defer mapped.Close()
				o := newOracle(g)
				for name, s := range map[string]*Snapshot{"freeze": frozen, "read": read, "map": mapped} {
					t.Run(name, func(t *testing.T) { checkOracle(t, g, o, s) })
				}
			})
		}
	}
}

// checkOracle holds one snapshot of g to the naive oracle.
func checkOracle(t *testing.T, g *Graph, o *oracle, s *Snapshot) {
	if !reflect.DeepEqual(s.Nodes(), g.Nodes()) {
		t.Fatal("Nodes() differ")
	}
	if !reflect.DeepEqual(s.Edges(), o.edges) {
		t.Fatal("Edges() differ")
	}
	want := o.stats()
	if s.NumNodes() != want.Nodes || s.NumEdges() != want.Edges || s.NumRelations() != want.Relations {
		t.Fatalf("counts differ: snapshot %d/%d/%d oracle %d/%d/%d",
			s.NumNodes(), s.NumEdges(), s.NumRelations(), want.Nodes, want.Edges, want.Relations)
	}
	if got := s.ComputeStats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("stats differ:\nsnapshot %+v\noracle   %+v", got, want)
	}

	for _, n := range g.Nodes() {
		sn, ok := s.Node(n.ID)
		if !ok || sn != n {
			t.Fatalf("Node(%q) = %+v, %v; want %+v", n.ID, sn, ok, n)
		}
		wantFrom := o.intentionsFor(n.ID)
		if got := rowEdges(s, s.byHead, n.ID); !reflect.DeepEqual(got, wantFrom) {
			t.Fatalf("byHead row of %q differs:\nsnapshot %+v\noracle   %+v", n.ID, got, wantFrom)
		}
		if got := s.IntentionsFor(n.ID).Edges(); !reflect.DeepEqual(got, wantFrom) {
			t.Fatalf("IntentionsFor(%q) differ:\nsnapshot %+v\noracle   %+v", n.ID, got, wantFrom)
		}
		if got := IntentionsOf(s, []byte(n.ID)).Edges(); !reflect.DeepEqual(got, wantFrom) || !s.ContainsBytes([]byte(n.ID)) {
			t.Fatalf("byte key %q: IntentionsOf differs or ContainsBytes is false:\nsnapshot %+v\noracle   %+v", n.ID, got, wantFrom)
		}
		if got, want := rowEdges(s, s.byTail, n.ID), o.edgesTo(n.ID); !reflect.DeepEqual(got, want) {
			t.Fatalf("byTail row of %q differs:\nsnapshot %+v\noracle   %+v", n.ID, got, want)
		}
		for _, k := range relatedKs(len(o.related(n.ID, 1<<20))) {
			if got, want := s.RelatedProducts(n.ID, k), o.related(n.ID, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("RelatedProducts(%q, %d) differ:\nsnapshot %+v\noracle   %+v", n.ID, k, got, want)
			}
		}
	}

	for _, minSupport := range []int{1, 2, 4} {
		if !reflect.DeepEqual(s.BuildHierarchy(minSupport), o.hierarchy(minSupport)) {
			t.Fatalf("BuildHierarchy(%d) differs", minSupport)
		}
	}

	// Unknown IDs answer empty.
	if _, ok := s.Node("p:NOPE"); ok {
		t.Fatal("unknown node found in snapshot")
	}
	if n := s.IntentionsFor("p:NOPE").Len(); n != 0 {
		t.Fatalf("unknown head has %d intentions", n)
	}
	if s.ContainsBytes([]byte("p:NOPE")) || IntentionsOf(s, []byte("p:NOPE")).Len() != 0 {
		t.Fatal("unknown byte key found in snapshot")
	}
	if n := len(s.RelatedProducts("p:NOPE", 5)); n != 0 {
		t.Fatalf("unknown head has %d related products", n)
	}
}

// TestSnapshotEmptyGraph freezes an empty graph.
func TestSnapshotEmptyGraph(t *testing.T) {
	s := New().Freeze()
	if s.NumNodes() != 0 || s.NumEdges() != 0 || s.NumRelations() != 0 {
		t.Fatal("empty graph snapshot not empty")
	}
	if len(s.Edges()) != 0 || len(s.Nodes()) != 0 {
		t.Fatal("empty graph snapshot has contents")
	}
	if s.IntentionsFor("p:P1").Len() != 0 {
		t.Fatal("empty snapshot has intentions")
	}
}

var allocSink float64

// TestSnapshotIntentionsForZeroAlloc is the hot-path guarantee: the
// frozen IntentionsFor view performs zero heap allocations.
func TestSnapshotIntentionsForZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := randomGraph(t, rng, 300).Freeze()
	var head string
	best := 0
	for _, n := range s.Nodes() {
		if l := s.IntentionsFor(n.ID).Len(); l > best {
			best, head = l, n.ID
		}
	}
	if best == 0 {
		t.Fatal("no head with intentions")
	}
	headBytes := []byte(head)
	for name, lookup := range map[string]func() EdgeSeq{
		"string": func() EdgeSeq { return IntentionsOf(s, head) },
		"bytes":  func() EdgeSeq { return IntentionsOf(s, headBytes) },
	} {
		allocs := testing.AllocsPerRun(200, func() {
			seq := lookup()
			for i := 0; i < seq.Len(); i++ {
				allocSink += seq.At(i).TypicalScore
			}
		})
		if allocs != 0 {
			t.Fatalf("IntentionsOf with a %s key allocates %v per run, want 0", name, allocs)
		}
	}
}

// TestRelatedSeqEquivalence: the pooled zero-copy view answers exactly
// what RelatedProducts materializes — same entries, same order, same
// scores, same via labels — and releasing it between lookups keeps the
// pool coherent, on prefixed and interleaved graphs, heap and mapped.
func TestRelatedSeqEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	irng := rand.New(rand.NewSource(2027))
	for trial := 0; trial < 5; trial++ {
		prefixed := randomGraph(t, rng, 60+rng.Intn(240)).Freeze()
		interleaved := interleavedGraph(t, irng, 60+irng.Intn(240)).Freeze()
		for _, s := range []*Snapshot{prefixed, mapFrozen(t, prefixed), interleaved, mapFrozen(t, interleaved)} {
			checkRelatedSeq(t, s)
		}
	}
}

// checkRelatedSeq holds s's RelatedOf view to its RelatedProducts.
func checkRelatedSeq(t *testing.T, s *Snapshot) {
	t.Helper()
	for _, n := range s.Nodes() {
		for _, k := range relatedKs(len(s.RelatedProducts(n.ID, 1<<20))) {
			want := s.RelatedProducts(n.ID, k)
			seq := RelatedOf(s, []byte(n.ID), k)
			if seq.Len() != len(want) {
				t.Fatalf("RelatedOf(%q, %d).Len() = %d, want %d", n.ID, k, seq.Len(), len(want))
			}
			for i := range want {
				got := seq.At(i)
				if got.ProductID != want[i].ProductID || got.Label != want[i].Label ||
					got.Score != want[i].Score || !reflect.DeepEqual(got.Via, want[i].Via) {
					t.Fatalf("RelatedOf(%q, %d) entry %d = %+v, want %+v", n.ID, k, i, got, want[i])
				}
			}
			seq.Release()
		}
	}
	// Unknown heads yield the zero view; Release on it is a no-op.
	seq := RelatedOf(s, []byte("p:NOPE"), 5)
	if seq.Len() != 0 {
		t.Fatalf("unknown head has %d related entries", seq.Len())
	}
	seq.Release()
	// Every k <= 0 answers empty, on both entry points, and allocates
	// nothing.
	var head string
	for _, n := range s.Nodes() {
		if len(s.RelatedProducts(n.ID, 1)) > 0 {
			head = n.ID
			break
		}
	}
	for _, k := range []int{0, -1, -1 << 40} {
		if seq := RelatedOf(s, head, k); seq.Len() != 0 {
			t.Fatalf("RelatedOf(%q, %d) has %d entries, want 0", head, k, seq.Len())
		}
		if got := s.RelatedProducts(head, k); len(got) != 0 {
			t.Fatalf("RelatedProducts(%q, %d) = %+v, want empty", head, k, got)
		}
		allocs := testing.AllocsPerRun(50, func() {
			seq := RelatedOf(s, head, k)
			allocSink += float64(seq.Len() + len(s.RelatedProducts(head, k)))
			seq.Release()
		})
		if allocs != 0 {
			t.Fatalf("k=%d allocates %v per run, want 0", k, allocs)
		}
	}
}

// tieGraph is a hand-built graph whose related scores are sums of
// exact quarters, so whole groups of candidates tie bit for bit. From
// head p:A: F1..F4 and Y score 1.0 (each F holds the hiking tail under
// two relations, as does p:A — duplicate (head, tail) edges), E1 0.75,
// D1..D3 0.5 (both camping tails, which share one label), C1..C5 and Z
// 0.25, and a query head on a camping tail is never a candidate. The
// walk meets Y and Z, last by ID in their groups, before the rest of
// those groups, so a later equal score has to displace an earlier one.
func tieGraph(t *testing.T) *Graph {
	t.Helper()
	g := New()
	camp1, camp2, hike := "i:usedFor:camping", "i:capableOf:camping", "i:x:hiking"
	g.AddNode(Node{ID: camp1, Type: NodeIntention, Label: "camping"})
	g.AddNode(Node{ID: camp2, Type: NodeIntention, Label: "camping"})
	g.AddNode(Node{ID: hike, Type: NodeIntention, Label: "hiking"})
	link := func(head string, rel relations.Relation, tail string, typical float64) {
		t.Helper()
		typ := NodeProduct
		if head[0] == 'q' {
			typ = NodeQuery
		}
		g.AddNode(Node{ID: head, Type: typ, Label: "label of " + head})
		err := g.AddEdge(Edge{Head: head, Relation: rel, Tail: tail, Behavior: know.CoBuy,
			Domain: catalog.Sports, PlausibleScore: 0.5, TypicalScore: typical})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, tail := range []string{camp2, camp1, hike} { // the order p:A walks them in
		link("p:A", relations.UsedForEve, tail, 0.5)
	}
	link("p:A", relations.CapableOf, hike, 0.5)
	link("q:tents", relations.UsedForEve, camp1, 0.5)
	link("p:Y", relations.UsedForEve, camp2, 1)
	link("p:Y", relations.UsedForEve, camp1, 1)
	link("p:Z", relations.UsedForEve, camp2, 0.5)
	for _, id := range []string{"p:F1", "p:F2", "p:F3", "p:F4"} {
		link(id, relations.UsedForEve, hike, 0.5)
		link(id, relations.CapableOf, hike, 0.5)
	}
	link("p:E1", relations.UsedForEve, camp1, 0.5)
	link("p:E1", relations.UsedForEve, hike, 0.5)
	for _, id := range []string{"p:D1", "p:D2", "p:D3"} {
		link(id, relations.UsedForEve, camp2, 0.5)
		link(id, relations.UsedForEve, camp1, 0.5)
	}
	for _, id := range []string{"p:C1", "p:C2", "p:C3", "p:C4", "p:C5"} {
		link(id, relations.UsedForEve, camp1, 0.5)
	}
	return g
}

// TestRelatedTopKBoundary pins top-k selection where it can go wrong:
// candidates with exactly equal scores on both sides of the cut. For
// every head and every k around the candidate count, the snapshot's
// answer is the first k entries of its own untruncated answer and
// equals the naive oracle, on a heap and on a mapped snapshot, and then
// on interleaved graphs.
func TestRelatedTopKBoundary(t *testing.T) {
	g := tieGraph(t)
	o := newOracle(g)
	heap := g.Freeze()
	mapped, err := MapSnapshotFile(writeFile(t, heap))
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()

	full := heap.RelatedProducts("p:A", 1<<20)
	if len(full) != 15 {
		t.Fatalf("p:A has %d related products, want 15: %+v", len(full), full)
	}
	for _, cut := range []int{1, 2, len(full) - 1} {
		if full[cut-1].Score != full[cut].Score {
			t.Fatalf("no tie across cut %d: %v then %v", cut, full[cut-1].Score, full[cut].Score)
		}
	}
	if want := []string{"camping"}; !reflect.DeepEqual(full[6].Via, want) {
		t.Fatalf("via of %s = %v, want %v (two tails, one label)", full[6].ProductID, full[6].Via, want)
	}

	for name, s := range map[string]*Snapshot{"heap": heap, "mapped": mapped} {
		for _, node := range g.Nodes() {
			full := s.RelatedProducts(node.ID, 1<<20)
			n := len(full)
			for _, k := range []int{1, 2, n - 1, n, n + 1, 1000, 1 << 20} {
				if k < 0 {
					continue
				}
				got := s.RelatedProducts(node.ID, k)
				if want := full[:min(k, n)]; !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: RelatedProducts(%q, %d) is not a prefix of the full answer:\ngot  %+v\nwant %+v",
						name, node.ID, k, got, want)
				}
				if want := o.related(node.ID, k); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: RelatedProducts(%q, %d) differs from the oracle:\ngot  %+v\nwant %+v",
						name, node.ID, k, got, want)
				}
			}
		}
	}

	// The same oracle on graphs whose product and query IDs interleave,
	// so the back rows the walk cuts short are in product-first order.
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 4; trial++ {
		g := interleavedGraph(t, rng, 80+rng.Intn(200))
		o := newOracle(g)
		heap := g.Freeze()
		for name, s := range map[string]*Snapshot{"heap": heap, "mapped": mapFrozen(t, heap)} {
			for _, node := range g.Nodes() {
				for _, k := range relatedKs(len(o.related(node.ID, 1<<20))) {
					if got, want := s.RelatedProducts(node.ID, k), o.related(node.ID, k); !reflect.DeepEqual(got, want) {
						t.Fatalf("interleaved %d, %s: RelatedProducts(%q, %d) differs from the oracle:\ngot  %+v\nwant %+v",
							trial, name, node.ID, k, got, want)
					}
				}
			}
		}
	}
}

// TestRelatedSeqZeroAlloc: a full related lookup through the view —
// walk, sort, iterate, release — touches the heap zero times at steady
// state. This is the property the /batch path builds on.
func TestRelatedSeqZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; the alloc guard runs in the regular suite")
	}
	rng := rand.New(rand.NewSource(7))
	s := randomGraph(t, rng, 300).Freeze()
	var head string
	best := 0
	for _, n := range s.Nodes() {
		if l := len(s.RelatedProducts(n.ID, 1<<20)); l > best {
			best, head = l, n.ID
		}
	}
	if best == 0 {
		t.Fatal("no head with related products")
	}
	// Warm the pool so the score array and arenas are sized.
	RelatedOf(s, head, 10).Release()
	headBytes := []byte(head)
	for name, lookup := range map[string]func() RelatedSeq{
		"string": func() RelatedSeq { return RelatedOf(s, head, 10) },
		"bytes":  func() RelatedSeq { return RelatedOf(s, headBytes, 10) },
	} {
		allocs := testing.AllocsPerRun(200, func() {
			seq := lookup()
			for i := 0; i < seq.Len(); i++ {
				r := seq.At(i)
				allocSink += r.Score + float64(len(r.Via))
			}
			seq.Release()
		})
		if allocs != 0 {
			t.Fatalf("RelatedOf with a %s key allocates %v per run, want 0", name, allocs)
		}
	}
}

// TestSnapshotIsImmutableView pins the RCU contract: mutations to the
// source graph after Freeze are invisible to the snapshot.
func TestSnapshotIsImmutableView(t *testing.T) {
	g := buildTestGraph(t)
	s := g.Freeze()
	edgesBefore := s.NumEdges()
	if err := g.AddAssertion(searchCand(99, "new query", "P9", "brand new intent", relations.UsedAs)); err != nil {
		t.Fatal(err)
	}
	if s.NumEdges() != edgesBefore {
		t.Fatal("snapshot observed a post-freeze write")
	}
	if _, ok := s.Node(QueryID("new query")); ok {
		t.Fatal("snapshot sees post-freeze node")
	}
	s2 := g.Freeze()
	if s2.NumEdges() != g.NumEdges() {
		t.Fatal("refreeze missed the new edges")
	}
}
