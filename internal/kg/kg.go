// Package kg implements the COSMO knowledge-graph store: typed nodes
// (products, queries, intentions) and scored edges (head, relation,
// tail). The offline pipeline builds a Graph; Freeze turns it into the
// immutable Snapshot that every read goes through — indexed queries,
// per-domain statistics (paper Tables 1 and 3), the intention hierarchy
// of Figure 8, JSONL/TSV export and the .cosmo artifact.
package kg

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"

	"cosmo/internal/catalog"
	"cosmo/internal/know"
	"cosmo/internal/relations"
)

// NodeType classifies graph nodes.
type NodeType string

// Node types; the paper's Table 1 lists product, query and intention.
const (
	NodeProduct   NodeType = "product"
	NodeQuery     NodeType = "query"
	NodeIntention NodeType = "intention"
)

// Node is one graph node.
type Node struct {
	ID   string
	Type NodeType
	// Label is the human-readable surface (title, query text, or tail).
	Label string
}

// Edge is one knowledge assertion: head --relation--> intention tail,
// annotated with critic scores and provenance.
type Edge struct {
	// Head is a product node ID (co-buy) or query node ID (search-buy);
	// for co-buy both products point at the shared intention.
	Head     string
	Relation relations.Relation
	// Tail is the intention node ID.
	Tail string

	Behavior       know.BehaviorType
	Domain         catalog.Category
	PlausibleScore float64
	TypicalScore   float64
	// Support counts how many behavior observations produced this edge.
	Support int
}

// Graph is the knowledge-graph builder: the offline pipeline adds nodes
// and merges edges into it, then Freeze turns it into the Snapshot that
// serves every query. Graph itself answers only what building needs
// (Node, Nodes, Edges and the counts). The RWMutex makes concurrent
// writers and Freeze safe.
//
// Nodes are interned on insert: a node ID gets a dense int32 number the
// first time it is added, relations likewise, and edges are keyed by
// the (head, relation, tail) numbers, so no insert builds a key string.
// The order everything reads back in — Nodes by ID, Edges by the
// head|relation|tail key string — is worked out from the numbers when
// it is asked for (see keyOrder).
type Graph struct {
	mu sync.RWMutex
	// index is the node set: node ID -> number. nodes holds the node of
	// each number.
	index map[string]int32
	nodes []Node
	// relIndex numbers the relations edges carry; rels holds them.
	relIndex map[relations.Relation]int32
	rels     []relations.Relation
	// edgeIndex maps a triple to its position in triples and edges,
	// which are in insertion order.
	edgeIndex map[triple]int32
	triples   []triple
	edges     []Edge
	// pipe records that some node ID or relation contains '|', so the
	// key order cannot be read off per-part ranks.
	pipe bool
	// idBuf is AddAssertion's scratch: it spells a node ID there to look
	// it up, and makes a string of it only for a new node.
	idBuf []byte
}

// triple is an edge's identity in interned numbers.
type triple struct{ head, rel, tail int32 }

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		index:     map[string]int32{},
		relIndex:  map[relations.Relation]int32{},
		edgeIndex: map[triple]int32{},
	}
}

// IntentionID returns the canonical node ID for an intention tail.
func IntentionID(rel relations.Relation, tail string) string {
	return "i:" + string(rel) + ":" + tail
}

// ProductID returns the node ID for a product.
func ProductID(id string) string { return "p:" + id }

// QueryID returns the node ID for a query.
func QueryID(q string) string { return "q:" + q }

// AddNode inserts or updates a node.
func (g *Graph) AddNode(n Node) {
	g.mu.Lock()
	g.addNode(n)
	g.mu.Unlock()
}

// addNode is AddNode under the write lock; it returns the node's number.
func (g *Graph) addNode(n Node) int32 {
	if i, ok := g.index[n.ID]; ok {
		g.nodes[i] = n
		return i
	}
	i := sym32(len(g.nodes))
	g.index[n.ID] = i
	g.nodes = append(g.nodes, n)
	g.pipe = g.pipe || strings.IndexByte(n.ID, '|') >= 0
	return i
}

// AddEdge inserts an edge, merging support and keeping max scores when
// the same assertion already exists. Head and tail nodes must exist.
func (g *Graph) AddEdge(e Edge) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	h, ok := g.index[e.Head]
	if !ok {
		return fmt.Errorf("kg: unknown head node %q", e.Head)
	}
	t, ok := g.index[e.Tail]
	if !ok {
		return fmt.Errorf("kg: unknown tail node %q", e.Tail)
	}
	g.addEdge(h, t, e)
	return nil
}

// addEdge is AddEdge under the write lock, for head and tail numbers h
// and t.
func (g *Graph) addEdge(h, t int32, e Edge) {
	r, ok := g.relIndex[e.Relation]
	if !ok {
		r = sym32(len(g.rels))
		g.relIndex[e.Relation] = r
		g.rels = append(g.rels, e.Relation)
		g.pipe = g.pipe || strings.IndexByte(string(e.Relation), '|') >= 0
	}
	k := triple{h, r, t}
	if i, ok := g.edgeIndex[k]; ok {
		old := &g.edges[i]
		old.Support += e.Support
		if e.PlausibleScore > old.PlausibleScore {
			old.PlausibleScore = e.PlausibleScore
		}
		if e.TypicalScore > old.TypicalScore {
			old.TypicalScore = e.TypicalScore
		}
		return
	}
	if e.Support == 0 {
		e.Support = 1
	}
	g.edgeIndex[k] = sym32(len(g.edges))
	g.triples = append(g.triples, k)
	g.edges = append(g.edges, e)
}

// AddAssertion is the high-level insert used by the pipeline: it creates
// the head, relation and intention nodes as needed and adds the edge.
// It holds the write lock throughout, so Freeze never sees half an
// assertion. A node ID is spelled in the graph's scratch buffer and
// becomes a string only for a new node; the edges carry the graph's own
// ID strings, so re-adding an assertion allocates nothing.
func (g *Graph) AddAssertion(c know.Candidate) error {
	if c.Relation == "" || c.Tail == "" {
		return fmt.Errorf("kg: candidate %d has no parsed triple", c.ID)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	t := g.assertNode(NodeIntention, c.Tail, "i:", string(c.Relation), ":", c.Tail)
	var ia, ib int32
	switch c.Behavior {
	case know.SearchBuy:
		ia = g.assertNode(NodeQuery, c.Query, "q:", c.Query)
		ib = g.assertNode(NodeProduct, c.ProductA, "p:", c.ProductA)
	default:
		ia = g.assertNode(NodeProduct, c.ProductA, "p:", c.ProductA)
		ib = g.assertNode(NodeProduct, c.ProductB, "p:", c.ProductB)
	}
	e := Edge{
		Relation: c.Relation, Tail: g.nodes[t].ID,
		Behavior: c.Behavior, Domain: c.Domain,
		PlausibleScore: c.PlausibleScore, TypicalScore: c.TypicalScore,
		Support: 1,
	}
	e.Head = g.nodes[ia].ID
	g.addEdge(ia, t, e)
	e.Head = g.nodes[ib].ID
	g.addEdge(ib, t, e)
	return nil
}

// assertNode is addNode for the node whose ID is the concatenation of
// idParts (the spelling IntentionID, QueryID and ProductID use), under
// the write lock.
func (g *Graph) assertNode(typ NodeType, label string, idParts ...string) int32 {
	id := g.idBuf[:0]
	for _, p := range idParts {
		id = append(id, p...)
	}
	g.idBuf = id
	if i, ok := g.index[string(id)]; ok {
		g.nodes[i].Type, g.nodes[i].Label = typ, label
		return i
	}
	return g.addNode(Node{ID: string(id), Type: typ, Label: label})
}

// Node returns a node by ID.
func (g *Graph) Node(id string) (Node, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	i, ok := g.index[id]
	if !ok {
		return Node{}, false
	}
	return g.nodes[i], true
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.index)
}

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.edges)
}

// Edges returns every edge in deterministic order: sorted by the key
// string head+"|"+relation+"|"+tail.
func (g *Graph) Edges() []Edge {
	g.mu.RLock()
	defer g.mu.RUnlock()
	order := g.keyOrder(g.sortedNodes())
	out := make([]Edge, len(order))
	for i, e := range order {
		out[i] = g.edges[e]
	}
	return out
}

// Nodes returns every node in ascending ID order.
func (g *Graph) Nodes() []Node {
	g.mu.RLock()
	defer g.mu.RUnlock()
	nodes := g.sortedNodes()
	out := make([]Node, len(nodes.num))
	for i, n := range nodes.num {
		out[i] = g.nodes[n]
	}
	return out
}

// nodeOrder is the node set in ascending ID order.
type nodeOrder struct {
	ids []string
	num []int32 // num[i] is the number of the node ids[i] names
	// rank maps a node number to its position in ids, -1 for a number
	// the index does not name.
	rank []int32
}

// sortedNodes sorts the node set by ID, once; the caller holds the lock.
func (g *Graph) sortedNodes() nodeOrder {
	type ref struct {
		id  string
		num int32
	}
	refs := make([]ref, 0, len(g.index))
	for id, n := range g.index {
		refs = append(refs, ref{id, n})
	}
	slices.SortFunc(refs, func(a, b ref) int { return strings.Compare(a.id, b.id) })
	o := nodeOrder{ids: make([]string, len(refs)), num: make([]int32, len(refs)), rank: make([]int32, len(g.nodes))}
	for i := range o.rank {
		o.rank[i] = -1
	}
	for i, r := range refs {
		o.ids[i], o.num[i], o.rank[r.num] = r.id, r.num, sym32(i)
	}
	return o
}

// keyOrder returns the edges' positions sorted by their key strings
// head+"|"+relation+"|"+tail (the order a map keyed by those strings
// sorted to, which the .cosmo edge arrays and every export keep).
//
// The keys are not built. Two keys with different heads compare like
// head+"|" does, because the first difference falls inside the head or
// on the '|' after the shorter one; with equal heads they compare like
// relation+"|", then like the tails. That holds when no head is another
// head followed by '|' — when no node ID contains '|' — and likewise for
// relations; a graph where one does, or whose edges touch a node the
// index no longer names, sorts the built keys instead. Otherwise edges
// are bucketed by the head's rank in ID+"|" order (pipeOrder) and each
// head's row is sorted by (relation rank, tail rank). Keys are unique,
// so the order is total.
func (g *Graph) keyOrder(nodes nodeOrder) []int32 {
	if g.pipe || len(nodes.ids) != len(g.nodes) {
		return g.builtKeyOrder()
	}
	headRank := make([]int32, len(g.nodes))
	for i, p := range pipeOrder(nodes.ids) {
		headRank[nodes.num[p]] = sym32(i)
	}
	relRank := make([]int32, len(g.rels))
	rels := slices.Clone(g.rels)
	slices.Sort(rels)
	for i, p := range pipeOrder(rels) {
		relRank[g.relIndex[rels[p]]] = sym32(i)
	}
	rows := newCSR(len(g.nodes), len(g.triples), func(e int32) int32 { return headRank[g.triples[e].head] })
	inRow := func(x, y int32) int {
		a, b := g.triples[x], g.triples[y]
		if c := cmp.Compare(relRank[a.rel], relRank[b.rel]); c != 0 {
			return c
		}
		return cmp.Compare(nodes.rank[a.tail], nodes.rank[b.tail])
	}
	for r := range nodes.ids {
		if row := rows.row(sym32(r)); len(row) > 1 {
			slices.SortFunc(row, inRow)
		}
	}
	return rows.idx
}

// builtKeyOrder is keyOrder by building and sorting the key strings.
// Distinct triples can build the same key once IDs contain '|'; those
// keep insertion order.
func (g *Graph) builtKeyOrder() []int32 {
	keys := make([]string, len(g.edges))
	order := make([]int32, len(g.edges))
	for i, e := range g.edges {
		keys[i] = e.Head + "|" + string(e.Relation) + "|" + e.Tail
		order[i] = sym32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int { return strings.Compare(keys[a], keys[b]) })
	return order
}

// pipeOrder takes strings in ascending order and returns their positions
// in the order of s+"|". The two orders differ only where a string is a
// prefix of others: it then sorts after those extensions whose next byte
// is below '|' (a space, a letter, a digit) and before the rest, so a
// stack of pending prefixes reorders the sorted list in one pass.
func pipeOrder[S ~string](sorted []S) []int32 {
	out := make([]int32, 0, len(sorted))
	var pending []int32
	for i, s := range sorted {
		for len(pending) > 0 {
			p := sorted[pending[len(pending)-1]]
			if len(s) > len(p) && s[:len(p)] == p && s[len(p)] < '|' {
				break
			}
			out = append(out, pending[len(pending)-1])
			pending = pending[:len(pending)-1]
		}
		pending = append(pending, sym32(i))
	}
	for i := len(pending) - 1; i >= 0; i-- {
		out = append(out, pending[i])
	}
	return out
}
