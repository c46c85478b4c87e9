package experiments

import (
	"fmt"

	"cosmo/internal/kg"
)

// ScaledKG builds a knowledge graph whose edge count is at least
// `factor` times the base world's — the scale harness behind the
// artifact benchmark (cosmo-bench -mmapbench, BENCH_9.json) and the
// bench/ harness's serving set-up KG. The paper's KG has
// millions of edges; the laptop-scale pipeline produces thousands, so
// the harness models the dimension that actually grows in production —
// the catalog and query population — while the intention space stays
// shared:
//
//   - every behavior head (product or query node) is replicated under a
//     "#k" suffix per extra replica, re-asserting its edges against the
//     same intention tails (exact multiplicative growth, deterministic);
//   - each replica additionally admits the Stage 8 COSMO-LM expansion of
//     the sampled search behaviors under its suffix, so the growth path
//     exercises the same generate → predict → threshold → admit
//     machinery as the pipeline's own expansion stage.
//
// The model input carries no suffix, so every replica would ask COSMO-LM
// the same questions the world's own Stage 8 asked: the expansion groups
// are the ones core.RunExpanded computed for the world, kept by the
// Runner until DropWorld, and only admitted per replica. ScaledKG
// therefore asks COSMO-LM nothing and charges its cost meter nothing.
//
// The result is deterministic for a given (world seed, factor) at any
// worker count and reuses the cached world, so successive factors differ
// only by replica count.
func (r *Runner) ScaledKG(factor int) (*kg.Graph, error) {
	if factor < 1 {
		return nil, fmt.Errorf("experiments: scale factor %d < 1", factor)
	}
	res, expansion := r.world()
	base := res.KG

	g := kg.New()
	for _, n := range base.Nodes() {
		g.AddNode(n)
	}
	baseEdges := base.Edges()
	for _, e := range baseEdges {
		if err := g.AddEdge(e); err != nil {
			return nil, fmt.Errorf("experiments: scale: clone base edge: %w", err)
		}
	}
	if factor == 1 {
		return g, nil
	}

	for k := 1; k < factor; k++ {
		suffix := fmt.Sprintf("#%d", k)
		// Stage 8 expansion under the replica's suffix, in behavior order.
		// It runs before head replication so the replicated nodes' catalog
		// labels win.
		for _, group := range expansion {
			for _, c := range group {
				c.Query += suffix
				c.ProductA += suffix
				if err := g.AddAssertion(c); err != nil {
					return nil, fmt.Errorf("experiments: scale: expansion admit: %w", err)
				}
			}
		}
		// Replicate every base head under the replica suffix; tails (the
		// intention space) are shared across replicas, which is what
		// keeps bytes/edge flat as the graph grows.
		for _, e := range baseEdges {
			hn, ok := base.Node(e.Head)
			if !ok {
				return nil, fmt.Errorf("experiments: scale: base edge head %q has no node", e.Head)
			}
			rep := e
			rep.Head = e.Head + suffix
			g.AddNode(kg.Node{ID: rep.Head, Type: hn.Type, Label: hn.Label})
			if err := g.AddEdge(rep); err != nil {
				return nil, fmt.Errorf("experiments: scale: replica edge: %w", err)
			}
		}
	}
	return g, nil
}
