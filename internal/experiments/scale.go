package experiments

import (
	"fmt"

	"cosmo/internal/cosmolm"
	"cosmo/internal/kg"
	"cosmo/internal/know"
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
//   - each replica additionally runs the Stage 8 COSMO-LM expansion over
//     its sampled search behaviors, so the growth path exercises the
//     same generate → predict → threshold → admit machinery as the
//     pipeline's own expansion stage.
//
// The result is deterministic for a given (world seed, factor) and
// reuses the cached world, so successive factors differ only by
// replica count.
func (r *Runner) ScaledKG(factor int) (*kg.Graph, error) {
	if factor < 1 {
		return nil, fmt.Errorf("experiments: scale factor %d < 1", factor)
	}
	res := r.World()
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

	for k := 1; k < factor; k++ {
		suffix := fmt.Sprintf("#%d", k)
		// Stage 8 expansion over the replica's search behaviors: the
		// trained COSMO-LM generates fresh assertions for each replica
		// query head, gated by its own plausibility prediction — the
		// same admission rule as core.Run's expansion stage. Runs before
		// head replication so the replicated nodes' catalog labels win.
		for _, sb := range res.SampledSearchBuys {
			p, ok := res.Catalog.ByID(sb.ProductID)
			if !ok {
				continue
			}
			ctx := cosmolm.SearchContext(sb.Query, p.Title)
			for _, gen := range res.CosmoLM.GenerateScored(ctx, p.Category, 2) {
				if gen.Plausibility <= 0.5 {
					continue
				}
				c := know.Candidate{
					Behavior: know.SearchBuy, Domain: p.Category,
					Query: sb.Query + suffix, ProductA: sb.ProductID + suffix, TypeA: p.Type,
					Relation: gen.Relation, Tail: gen.Tail, Text: gen.Text,
					PlausibleScore: gen.Plausibility, TypicalScore: gen.Typicality,
				}
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
