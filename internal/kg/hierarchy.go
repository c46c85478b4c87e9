package kg

import (
	"sort"
	"strings"
)

// HierarchyNode is one node of the intention hierarchy of paper Figure 8:
// coarse-grained intentions ("camping") expand to fine-grained ones
// ("winter camping"), whose leaves link to product concepts
// ("winter boots").
type HierarchyNode struct {
	Label    string
	Children []*HierarchyNode
	// Products are linked product-concept labels (for leaf intents).
	Products []string
	// EdgeCount is the KG support behind this intention.
	EdgeCount int
}

// tailInfo aggregates one intention tail's evidence for hierarchy
// assembly: its label's stemmed content tokens, total edge support,
// and the product labels attached to it.
type tailInfo struct {
	id       string // tail node ID, the deterministic tie-breaker
	label    string
	tokens   map[string]bool
	count    int
	products map[string]bool
}

// assembleHierarchy turns per-tail aggregates into the specialization
// forest: tail B is a child of tail A when A's content tokens are a
// strict subset of B's (e.g. "camping" ⊂ "winter camping").
func assembleHierarchy(byTail map[string]*tailInfo, minSupport int) []*HierarchyNode {
	infos := make([]*tailInfo, 0, len(byTail))
	for _, in := range byTail {
		if in.count >= minSupport && len(in.tokens) > 0 {
			infos = append(infos, in)
		}
	}
	// Sort by token-set size so parents precede children; the tail-ID
	// tie-break makes the order (and so the forest) fully deterministic
	// even when two tails share a label.
	sort.Slice(infos, func(i, j int) bool {
		if len(infos[i].tokens) != len(infos[j].tokens) {
			return len(infos[i].tokens) < len(infos[j].tokens)
		}
		if infos[i].label != infos[j].label {
			return infos[i].label < infos[j].label
		}
		return infos[i].id < infos[j].id
	})
	nodes := make([]*HierarchyNode, len(infos))
	for i, in := range infos {
		products := make([]string, 0, len(in.products))
		for p := range in.products {
			products = append(products, p)
		}
		sort.Strings(products)
		nodes[i] = &HierarchyNode{Label: in.label, Products: products, EdgeCount: in.count}
	}
	// Attach each node to its most specific strict-subset ancestor.
	isSubset := func(a, b map[string]bool) bool {
		if len(a) >= len(b) {
			return false
		}
		for t := range a {
			if !b[t] {
				return false
			}
		}
		return true
	}
	var roots []*HierarchyNode
	for i := range infos {
		bestParent := -1
		for j := i - 1; j >= 0; j-- {
			if isSubset(infos[j].tokens, infos[i].tokens) {
				if bestParent == -1 || len(infos[j].tokens) > len(infos[bestParent].tokens) {
					bestParent = j
				}
			}
		}
		if bestParent >= 0 {
			nodes[bestParent].Children = append(nodes[bestParent].Children, nodes[i])
		} else {
			roots = append(roots, nodes[i])
		}
	}
	sort.Slice(roots, func(i, j int) bool {
		if roots[i].EdgeCount != roots[j].EdgeCount {
			return roots[i].EdgeCount > roots[j].EdgeCount
		}
		return roots[i].Label < roots[j].Label
	})
	return roots
}

// Render pretty-prints a hierarchy subtree to depth levels.
func (n *HierarchyNode) Render(depth int) string {
	var b strings.Builder
	n.render(&b, 0, depth)
	return b.String()
}

func (n *HierarchyNode) render(b *strings.Builder, indent, depth int) {
	b.WriteString(strings.Repeat("  ", indent))
	b.WriteString(n.Label)
	if len(n.Products) > 0 {
		b.WriteString(" -> [")
		max := len(n.Products)
		if max > 3 {
			max = 3
		}
		b.WriteString(strings.Join(n.Products[:max], ", "))
		b.WriteString("]")
	}
	b.WriteString("\n")
	if depth <= 0 {
		return
	}
	for _, c := range n.Children {
		c.render(b, indent+1, depth-1)
	}
}

// Size returns the number of nodes in the subtree.
func (n *HierarchyNode) Size() int {
	s := 1
	for _, c := range n.Children {
		s += c.Size()
	}
	return s
}
