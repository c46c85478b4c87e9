// Package navigation reproduces COSMO's search-navigation application
// (§4.3): intention knowledge organized into a hierarchy (Figure 8)
// drives a multi-turn navigation experience (Figure 9) — broad concept
// interpretation, product-type discovery, attribute refinement — and an
// agent-based online A/B experiment measuring the §4.3.2 endpoints
// (relative product-sales lift and navigation engagement rate).
package navigation

import (
	"sort"
	"strings"

	"cosmo/internal/kg"
	"cosmo/internal/textproc"
)

// Suggestion is one navigation refinement offered to the shopper.
type Suggestion struct {
	// Label is the refinement surface ("winter camping").
	Label string
	// Products are product labels linked to the refined intention.
	Products []string
	// Support is the KG evidence weight behind the suggestion.
	Support int
}

// Navigator serves multi-turn navigation from a COSMO knowledge graph.
type Navigator struct {
	roots  []*kg.HierarchyNode
	byStem map[string][]*kg.HierarchyNode // content stem -> nodes
}

// NewNavigator indexes the intention hierarchy of a frozen knowledge
// graph. The hierarchy is a snapshot query (the builder Graph answers
// none), so a refresh builds a new Navigator from a new snapshot.
func NewNavigator(snap *kg.Snapshot, minSupport int) *Navigator {
	n := &Navigator{byStem: map[string][]*kg.HierarchyNode{}}
	n.roots = snap.BuildHierarchy(minSupport)
	var walk func(node *kg.HierarchyNode)
	walk = func(node *kg.HierarchyNode) {
		for _, s := range textproc.ContentStems(node.Label) {
			n.byStem[s] = append(n.byStem[s], node)
		}
		for _, c := range node.Children {
			walk(c)
		}
	}
	for _, r := range n.roots {
		walk(r)
	}
	return n
}

// match finds hierarchy nodes whose label shares stems with the query,
// ranked by (stem overlap, support).
func (n *Navigator) match(query string) []*kg.HierarchyNode {
	stems := textproc.ContentStems(query)
	scores := map[*kg.HierarchyNode]int{}
	for _, s := range stems {
		for _, node := range n.byStem[s] {
			scores[node]++
		}
	}
	nodes := make([]*kg.HierarchyNode, 0, len(scores))
	for node := range scores {
		nodes = append(nodes, node)
	}
	sort.Slice(nodes, func(i, j int) bool {
		if scores[nodes[i]] != scores[nodes[j]] {
			return scores[nodes[i]] > scores[nodes[j]]
		}
		if nodes[i].EdgeCount != nodes[j].EdgeCount {
			return nodes[i].EdgeCount > nodes[j].EdgeCount
		}
		return nodes[i].Label < nodes[j].Label
	})
	return nodes
}

// Refine returns up to k refinement suggestions for a query: the matched
// intention's children (fine-grained intents) when it has any, otherwise
// sibling intentions sharing the query stem. This is the paper's
// "camping" → {"winter camping", "lakeside camping", ...} step.
func (n *Navigator) Refine(query string, k int) []Suggestion {
	matched := n.match(query)
	if len(matched) == 0 {
		return nil
	}
	var pool []*kg.HierarchyNode
	for _, m := range matched {
		if len(m.Children) > 0 {
			pool = append(pool, m.Children...)
		}
	}
	if len(pool) == 0 {
		// Leaf intents: offer the matched intents themselves as the
		// product-discovery layer.
		pool = matched
	}
	sort.Slice(pool, func(i, j int) bool {
		if pool[i].EdgeCount != pool[j].EdgeCount {
			return pool[i].EdgeCount > pool[j].EdgeCount
		}
		return pool[i].Label < pool[j].Label
	})
	if k > len(pool) {
		k = len(pool)
	}
	out := make([]Suggestion, 0, k)
	seen := map[string]bool{}
	for _, node := range pool {
		if seen[node.Label] {
			continue
		}
		seen[node.Label] = true
		out = append(out, Suggestion{
			Label:    node.Label,
			Products: node.Products,
			Support:  node.EdgeCount,
		})
		if len(out) == k {
			break
		}
	}
	return out
}

// Session is one multi-turn navigation trajectory.
type Session struct {
	nav  *Navigator
	Path []string
}

// StartSession begins a navigation session at the broad query.
func (n *Navigator) StartSession(query string) *Session {
	return &Session{nav: n, Path: []string{query}}
}

// Options returns the current refinement options.
func (s *Session) Options(k int) []Suggestion {
	return s.nav.Refine(s.Path[len(s.Path)-1], k)
}

// Select advances the session by choosing a refinement label. The next
// query is the refinement itself (e.g. "air mattress" selected under
// "camping" becomes "camping air mattress" when it narrows the path).
func (s *Session) Select(label string) {
	prev := s.Path[len(s.Path)-1]
	next := label
	if !strings.Contains(label, firstStemWord(prev)) && len(s.Path) > 0 {
		next = firstStemWord(prev) + " " + label
	}
	s.Path = append(s.Path, next)
}

// Depth returns the number of refinement turns taken so far.
func (s *Session) Depth() int { return len(s.Path) - 1 }

func firstStemWord(q string) string {
	toks := textproc.ContentTokens(q)
	if len(toks) == 0 {
		return q
	}
	return toks[0]
}
