package kg

import (
	"sort"
	"strings"

	"cosmo/internal/textproc"
)

// Canonicalize merges intention nodes whose (relation, stemmed content)
// coincide — "walk the dog" and "walking the dogs" become one node —
// implementing the paper's tail canonicalization step (§3.1). It returns
// a new graph; the receiver is unmodified. The surviving surface form is
// the one with the highest edge support (ties broken lexicographically).
func (g *Graph) Canonicalize() *Graph {
	type groupKey struct {
		relation string
		stems    string
	}
	// Gather support per tail node to choose representatives.
	support := map[string]int{}
	for _, e := range g.Edges() {
		support[e.Tail] += e.Support
	}
	// Group intention nodes by canonical key.
	groups := map[groupKey][]Node{}
	for _, n := range g.Nodes() {
		if n.Type != NodeIntention {
			continue
		}
		rel := relationOfIntentionID(n.ID)
		stems := textproc.ContentStems(n.Label)
		sort.Strings(stems)
		k := groupKey{relation: rel, stems: strings.Join(stems, " ")}
		groups[k] = append(groups[k], n)
	}
	// Pick a representative per group.
	replace := map[string]string{} // old tail ID -> canonical tail ID
	for _, nodes := range groups {
		best := nodes[0]
		for _, n := range nodes[1:] {
			if support[n.ID] > support[best.ID] ||
				(support[n.ID] == support[best.ID] && n.ID < best.ID) {
				best = n
			}
		}
		for _, n := range nodes {
			replace[n.ID] = best.ID
		}
	}
	// Rebuild with merged tails.
	out := New()
	for _, n := range g.Nodes() {
		if n.Type == NodeIntention && replace[n.ID] != n.ID {
			continue
		}
		out.AddNode(n)
	}
	for _, e := range g.Edges() {
		e.Tail = replace[e.Tail]
		// AddEdge merges duplicates created by tail replacement.
		//cosmo:lint-ignore dropped-error AddEdge only errors on unknown endpoints; every surviving node was added above
		_ = out.AddEdge(e)
	}
	return out
}

// relationOfIntentionID extracts the relation segment of an intention
// node ID ("i:<relation>:<tail>").
func relationOfIntentionID(id string) string {
	parts := strings.SplitN(id, ":", 3)
	if len(parts) < 3 {
		return ""
	}
	return parts[1]
}
