// Package kg implements the COSMO knowledge-graph store: typed nodes
// (products, queries, intentions) and scored edges (head, relation,
// tail). The offline pipeline builds a Graph; Freeze turns it into the
// immutable Snapshot that every read goes through — indexed queries,
// per-domain statistics (paper Tables 1 and 3), the intention hierarchy
// of Figure 8, JSONL/TSV export and the .cosmo artifact.
package kg

import (
	"fmt"
	"sort"
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
type Graph struct {
	mu    sync.RWMutex
	nodes map[string]Node
	edges map[string]*Edge // key: head|rel|tail
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{nodes: map[string]Node{}, edges: map[string]*Edge{}}
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
	g.nodes[n.ID] = n
	g.mu.Unlock()
}

func edgeKey(head string, rel relations.Relation, tail string) string {
	return head + "|" + string(rel) + "|" + tail
}

// AddEdge inserts an edge, merging support and keeping max scores when
// the same assertion already exists. Head and tail nodes must exist.
func (g *Graph) AddEdge(e Edge) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.nodes[e.Head]; !ok {
		return fmt.Errorf("kg: unknown head node %q", e.Head)
	}
	if _, ok := g.nodes[e.Tail]; !ok {
		return fmt.Errorf("kg: unknown tail node %q", e.Tail)
	}
	k := edgeKey(e.Head, e.Relation, e.Tail)
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

// AddAssertion is the high-level insert used by the pipeline: it creates
// the head, relation and intention nodes as needed and adds the edge.
func (g *Graph) AddAssertion(c know.Candidate) error {
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
		qid := QueryID(c.Query)
		g.AddNode(Node{ID: qid, Type: NodeQuery, Label: c.Query})
		pid := ProductID(c.ProductA)
		g.AddNode(Node{ID: pid, Type: NodeProduct, Label: c.ProductA})
		if err := mk(qid); err != nil {
			return err
		}
		return mk(pid)
	default:
		pa := ProductID(c.ProductA)
		pb := ProductID(c.ProductB)
		g.AddNode(Node{ID: pa, Type: NodeProduct, Label: c.ProductA})
		g.AddNode(Node{ID: pb, Type: NodeProduct, Label: c.ProductB})
		if err := mk(pa); err != nil {
			return err
		}
		return mk(pb)
	}
}

// Node returns a node by ID.
func (g *Graph) Node(id string) (Node, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n, ok := g.nodes[id]
	return n, ok
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.nodes)
}

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.edges)
}

// Edges returns every edge in deterministic (key-sorted) order.
func (g *Graph) Edges() []Edge {
	g.mu.RLock()
	defer g.mu.RUnlock()
	keys := make([]string, 0, len(g.edges))
	for k := range g.edges {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Edge, len(keys))
	for i, k := range keys {
		out[i] = *g.edges[k]
	}
	return out
}

// Nodes returns every node in deterministic order.
func (g *Graph) Nodes() []Node {
	g.mu.RLock()
	defer g.mu.RUnlock()
	ids := make([]string, 0, len(g.nodes))
	for id := range g.nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]Node, len(ids))
	for i, id := range ids {
		out[i] = g.nodes[id]
	}
	return out
}
