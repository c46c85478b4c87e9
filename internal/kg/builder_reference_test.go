package kg

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"cosmo/internal/catalog"
	"cosmo/internal/know"
	"cosmo/internal/relations"
	"cosmo/internal/textproc"
)

// refGraph is the previous builder, kept as the oracle for the interned
// one: nodes in a map by ID, edges in a map under their concatenated
// head|relation|tail key, and a Freeze that string-sorts those keys.
type refGraph struct {
	nodes map[string]Node
	edges map[string]*Edge
}

func newRefGraph() *refGraph {
	return &refGraph{nodes: map[string]Node{}, edges: map[string]*Edge{}}
}

func (g *refGraph) AddNode(n Node) { g.nodes[n.ID] = n }

func (g *refGraph) AddEdge(e Edge) error {
	if _, ok := g.nodes[e.Head]; !ok {
		return fmt.Errorf("kg: unknown head node %q", e.Head)
	}
	if _, ok := g.nodes[e.Tail]; !ok {
		return fmt.Errorf("kg: unknown tail node %q", e.Tail)
	}
	k := e.Head + "|" + string(e.Relation) + "|" + e.Tail
	if old, ok := g.edges[k]; ok {
		old.Support += e.Support
		if e.PlausibleScore > old.PlausibleScore {
			old.PlausibleScore = e.PlausibleScore
		}
		if e.TypicalScore > old.TypicalScore {
			old.TypicalScore = e.TypicalScore
		}
		return nil
	}
	cp := e
	if cp.Support == 0 {
		cp.Support = 1
	}
	g.edges[k] = &cp
	return nil
}

func (g *refGraph) AddAssertion(c know.Candidate) error {
	if c.Relation == "" || c.Tail == "" {
		return fmt.Errorf("kg: candidate %d has no parsed triple", c.ID)
	}
	tailID := IntentionID(c.Relation, c.Tail)
	g.AddNode(Node{ID: tailID, Type: NodeIntention, Label: c.Tail})
	mk := func(head string) error {
		return g.AddEdge(Edge{
			Head: head, Relation: c.Relation, Tail: tailID,
			Behavior: c.Behavior, Domain: c.Domain,
			PlausibleScore: c.PlausibleScore, TypicalScore: c.TypicalScore,
			Support: 1,
		})
	}
	switch c.Behavior {
	case know.SearchBuy:
		qid, pid := QueryID(c.Query), ProductID(c.ProductA)
		g.AddNode(Node{ID: qid, Type: NodeQuery, Label: c.Query})
		g.AddNode(Node{ID: pid, Type: NodeProduct, Label: c.ProductA})
		if err := mk(qid); err != nil {
			return err
		}
		return mk(pid)
	default:
		pa, pb := ProductID(c.ProductA), ProductID(c.ProductB)
		g.AddNode(Node{ID: pa, Type: NodeProduct, Label: c.ProductA})
		g.AddNode(Node{ID: pb, Type: NodeProduct, Label: c.ProductB})
		if err := mk(pa); err != nil {
			return err
		}
		return mk(pb)
	}
}

func (g *refGraph) sortedKeys() []string {
	keys := make([]string, 0, len(g.edges))
	for k := range g.edges {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func (g *refGraph) Edges() []Edge {
	var out []Edge
	for _, k := range g.sortedKeys() {
		out = append(out, *g.edges[k])
	}
	return out
}

func (g *refGraph) Nodes() []Node {
	ids := make([]string, 0, len(g.nodes))
	for id := range g.nodes {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	var out []Node
	for _, id := range ids {
		out = append(out, g.nodes[id])
	}
	return out
}

// Canonicalize is Canonicalize over the reference maps.
func (g *refGraph) Canonicalize() *refGraph {
	support := map[string]int{}
	for _, e := range g.Edges() {
		support[e.Tail] += e.Support
	}
	groups := map[string][]Node{}
	for _, n := range g.Nodes() {
		if n.Type != NodeIntention {
			continue
		}
		stems := textproc.ContentStems(n.Label)
		slices.Sort(stems)
		k := relationOfIntentionID(n.ID) + "\x00" + strings.Join(stems, " ")
		groups[k] = append(groups[k], n)
	}
	replace := map[string]string{}
	for _, nodes := range groups {
		best := nodes[0]
		for _, n := range nodes[1:] {
			if support[n.ID] > support[best.ID] || (support[n.ID] == support[best.ID] && n.ID < best.ID) {
				best = n
			}
		}
		for _, n := range nodes {
			replace[n.ID] = best.ID
		}
	}
	out := newRefGraph()
	for _, n := range g.Nodes() {
		if n.Type != NodeIntention || replace[n.ID] == n.ID {
			out.AddNode(n)
		}
	}
	for _, e := range g.Edges() {
		e.Tail = replace[e.Tail]
		if err := out.AddEdge(e); err != nil {
			panic(err)
		}
	}
	return out
}

// FreezeChecked is the previous freeze: string-sort every key, intern
// the IDs through a fresh map, then fill the same arrays.
func (g *refGraph) FreezeChecked() (*Snapshot, error) {
	keys := g.sortedKeys()
	ne := len(keys)
	rawBeh := make([]know.BehaviorType, ne)
	relSym := map[relations.Relation]int32{}
	domSym := map[catalog.Category]int32{}
	for i, k := range keys {
		e := g.edges[k]
		rawBeh[i] = e.Behavior
		relSym[e.Relation] = 0
		domSym[e.Domain] = 0
	}
	s := &Snapshot{}
	for id := range g.nodes {
		s.ids = append(s.ids, id)
	}
	slices.Sort(s.ids)
	s.labels = make([]string, len(s.ids))
	rawTypes := make([]NodeType, len(s.ids))
	sym := map[string]int32{}
	for i, id := range s.ids {
		s.labels[i], rawTypes[i], sym[id] = g.nodes[id].Label, g.nodes[id].Type, int32(i)
	}
	var err error
	if s.ntypeTable, s.ntypes, err = internSyms(rawTypes); err != nil {
		return nil, err
	}
	s.rels = sortedSyms(relSym)
	s.doms = sortedSyms(domSym)
	if s.behTable, s.eBeh, err = internSyms(rawBeh); err != nil {
		return nil, err
	}
	s.bindDerived()
	s.eHead, s.eTail, s.eRel, s.eDom = make([]int32, ne), make([]int32, ne), make([]int32, ne), make([]int32, ne)
	s.ePla, s.eTyp, s.eSup = make([]float64, ne), make([]float64, ne), make([]int32, ne)
	for i, k := range keys {
		e := g.edges[k]
		if e.Support < 0 || e.Support > math.MaxInt32 {
			return nil, fmt.Errorf("kg: freeze: edge %q support %d outside the snapshot's int32 range", k, e.Support)
		}
		h, okHead := sym[e.Head]
		t, okTail := sym[e.Tail]
		if !okHead || !okTail {
			end, id := "head", e.Head
			if okHead {
				end, id = "tail", e.Tail
			}
			return nil, fmt.Errorf("kg: freeze: edge %s -[%s]-> %s references unknown %s node %q",
				e.Head, e.Relation, e.Tail, end, id)
		}
		s.eHead[i], s.eTail[i] = h, t
		s.eRel[i], s.eDom[i] = relSym[e.Relation], domSym[e.Domain]
		s.ePla[i], s.eTyp[i], s.eSup[i] = e.PlausibleScore, e.TypicalScore, int32(e.Support)
	}
	s.indexRows()
	return s, nil
}

// builderPool draws the IDs and relations of a randomized build. Query
// texts and products come in prefix families whose next byte falls
// below '|' (a space, a digit), above it (non-ASCII) or — with pipe set —
// on it, so the key order differs from the (head, relation, tail) tuple
// order. What follows a '|' is never a relation name, so no two
// distinct triples concatenate to the same key.
type builderPool struct {
	queries, products, tails []string
	rels                     []relations.Relation
}

func newBuilderPool(pipe bool) builderPool {
	p := builderPool{
		queries: []string{
			"camping", "camping tent", "camping tent 2", "camping2", "campingé",
			"dog", "dog leash", "dogs", "query 1", "query 10", "query 1 a",
		},
		products: []string{"P1", "P10", "P1 b", "P2", "P20"},
		tails: []string{
			"camping", "winter camping", "camping in winter", "walking the dog",
			"walking the dogs", "walk the dog", "holding snacks", "snacks",
		},
		rels: []relations.Relation{
			relations.UsedForEve, relations.UsedForFunc, "USED_FOR",
			relations.CapableOf, relations.IsA, relations.UsedBy,
		},
	}
	if pipe {
		p.queries = append(p.queries, "camping|tent", "camping|tent x", "dog|", "dog|0")
		p.products = append(p.products, "P1|b", "P1|", "P1|A")
		p.tails = append(p.tails, "camping|winter", "snacks|x")
	}
	return p
}

// builderOp applies one random operation to both builders and checks
// they agree on its error.
func builderOp(t *testing.T, rng *rand.Rand, p builderPool, g *Graph, ref *refGraph) {
	t.Helper()
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	scores := []float64{0, 0.3, 0.5, 0.5, 0.9}
	domains := []catalog.Category{catalog.Sports, catalog.PetSupplies}
	var errG, errRef error
	switch op := rng.Intn(10); {
	case op < 6:
		c := know.Candidate{
			ID: rng.Intn(100), Domain: domains[rng.Intn(len(domains))],
			Relation: p.rels[rng.Intn(len(p.rels))], Tail: pick(p.tails),
			PlausibleScore: scores[rng.Intn(len(scores))], TypicalScore: scores[rng.Intn(len(scores))],
		}
		if rng.Intn(2) == 0 {
			c.Behavior, c.Query, c.ProductA = know.SearchBuy, pick(p.queries), pick(p.products)
		} else {
			c.Behavior, c.ProductA, c.ProductB = know.CoBuy, pick(p.products), pick(p.products)
		}
		if rng.Intn(20) == 0 {
			c.Tail = "" // unparsed
		}
		errG, errRef = g.AddAssertion(c), ref.AddAssertion(c)
	case op < 8:
		// A relabel, usually of a node that already has edges.
		var n Node
		switch rng.Intn(3) {
		case 0:
			q := pick(p.queries)
			n = Node{ID: QueryID(q), Type: NodeQuery, Label: fmt.Sprintf("%s v%d", q, rng.Intn(3))}
		case 1:
			n = Node{ID: ProductID(pick(p.products)), Type: NodeProduct, Label: fmt.Sprint("title ", rng.Intn(3))}
		default:
			r := p.rels[rng.Intn(len(p.rels))]
			n = Node{ID: IntentionID(r, pick(p.tails)), Type: NodeIntention, Label: fmt.Sprint("tail ", rng.Intn(3))}
		}
		g.AddNode(n)
		ref.AddNode(n)
	default:
		// A raw edge, possibly onto a node neither builder has.
		e := Edge{
			Head: QueryID(pick(p.queries)), Relation: p.rels[rng.Intn(len(p.rels))],
			Tail:     IntentionID(p.rels[rng.Intn(len(p.rels))], pick(p.tails)),
			Behavior: know.SearchBuy, Domain: domains[rng.Intn(len(domains))],
			PlausibleScore: scores[rng.Intn(len(scores))], TypicalScore: scores[rng.Intn(len(scores))],
			Support: rng.Intn(3),
		}
		if rng.Intn(2) == 0 {
			e.Head = ProductID(pick(p.products))
		}
		errG, errRef = g.AddEdge(e), ref.AddEdge(e)
	}
	if fmt.Sprint(errG) != fmt.Sprint(errRef) {
		t.Fatalf("error %v, reference %v", errG, errRef)
	}
}

// assertBuildersEqual compares everything a builder reads back: counts,
// Nodes, Edges and the frozen snapshot's bytes, or Freeze's error.
func assertBuildersEqual(t *testing.T, g *Graph, ref *refGraph) {
	t.Helper()
	if g.NumNodes() != len(ref.nodes) || g.NumEdges() != len(ref.edges) {
		t.Fatalf("%d nodes, %d edges; reference %d, %d", g.NumNodes(), g.NumEdges(), len(ref.nodes), len(ref.edges))
	}
	if got, want := g.Nodes(), ref.Nodes(); !reflect.DeepEqual(got, want) && len(want) > 0 {
		t.Fatalf("Nodes() = %v\nreference %v", got, want)
	}
	if got, want := g.Edges(), ref.Edges(); !reflect.DeepEqual(got, want) && len(want) > 0 {
		t.Fatalf("Edges() = %v\nreference %v", got, want)
	}
	for id, n := range ref.nodes {
		if got, ok := g.Node(id); !ok || got != n {
			t.Fatalf("Node(%q) = %v, %v; reference %v", id, got, ok, n)
		}
	}
	s, err := g.FreezeChecked()
	refS, refErr := ref.FreezeChecked()
	if fmt.Sprint(err) != fmt.Sprint(refErr) {
		t.Fatalf("FreezeChecked error %v, reference %v", err, refErr)
	}
	if err != nil {
		return
	}
	var got, want bytes.Buffer
	if err := s.WriteSnapshot(&got); err != nil {
		t.Fatal(err)
	}
	if err := refS.WriteSnapshot(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("snapshot bytes differ from the reference")
	}
}

// TestBuilderMatchesReference drives the interned builder and the
// string-keyed reference through the same random inserts — merged
// duplicates, relabels after edges exist, prefix IDs, IDs containing '|',
// refused edges — and holds Nodes, Edges, the frozen bytes and
// Canonicalize's result to the reference. A last round removes a node
// from both node sets, so Freeze must refuse the dangling edges the same
// way.
func TestBuilderMatchesReference(t *testing.T) {
	fast := 0
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		p := newBuilderPool(trial%2 == 1)
		g, ref := New(), newRefGraph()
		for i, n := 0, 1+rng.Intn(150); i < n; i++ {
			builderOp(t, rng, p, g, ref)
		}
		assertBuildersEqual(t, g, ref)
		if !g.pipe {
			fast++
		}
		canon := g.Canonicalize()
		refCanon := ref.Canonicalize()
		assertBuildersEqual(t, canon, refCanon)

		if ids := ref.Nodes(); len(ids) > 0 && trial%3 == 0 {
			id := ids[rng.Intn(len(ids))].ID
			delete(g.index, id)
			delete(ref.nodes, id)
			assertBuildersEqual(t, g, ref)
		}
	}
	if fast == 0 {
		t.Fatal("no trial took the rank-based key order")
	}
}

// TestPipeOrder holds pipeOrder to sorting by s+"|" directly, on
// prefix families with every kind of next byte.
func TestPipeOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	alphabet := []string{"a", "b", " ", "|", "}", "é", "0"}
	for trial := 0; trial < 500; trial++ {
		seen := map[string]bool{}
		var xs []string
		for i := rng.Intn(12); i >= 0; i-- {
			var sb strings.Builder
			for j := rng.Intn(4); j >= 0; j-- {
				sb.WriteString(alphabet[rng.Intn(len(alphabet))])
			}
			if s := sb.String(); !seen[s] {
				seen[s] = true
				xs = append(xs, s)
			}
		}
		slices.Sort(xs)
		var got []string
		for _, i := range pipeOrder(xs) {
			got = append(got, xs[i])
		}
		want := slices.Clone(xs)
		slices.SortFunc(want, func(a, b string) int { return strings.Compare(a+"|", b+"|") })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pipeOrder(%q) = %q, want %q", xs, got, want)
		}
	}
}
