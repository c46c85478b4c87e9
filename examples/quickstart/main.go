// Quickstart: run the COSMO pipeline on a tiny world, inspect the
// knowledge graph, and generate knowledge with COSMO-LM.
package main

import (
	"fmt"
	"log"

	"cosmo/internal/core"
	"cosmo/internal/kg"
)

func main() {
	cfg := core.DefaultConfig()
	cfg.Behavior.CoBuyEvents = 5000
	cfg.Behavior.SearchEvents = 5000
	cfg.AnnotationBudget = 1500
	cfg.Logf = log.Printf

	res, err := core.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Freeze the built graph into the read-only snapshot every query uses.
	snap := res.KG.Freeze()
	stats := snap.ComputeStats()
	fmt.Printf("\nknowledge graph: %d nodes, %d edges, %d relations, %d domains\n",
		stats.Nodes, stats.Edges, stats.Relations, stats.Domains)

	// What does COSMO know about the query "camping"?
	fmt.Println("\nintentions behind the query \"camping\":")
	seq := snap.IntentionsFor(kg.QueryID("camping"))
	for i := 0; i < min(seq.Len(), 5); i++ {
		e := seq.At(i)
		tail, _ := snap.Node(e.Tail)
		fmt.Printf("  %-14s %-35s typical=%.2f\n", e.Relation, tail.Label, e.TypicalScore)
	}

	// Generate fresh knowledge with the instruction-tuned COSMO-LM.
	p := res.Catalog.OfType("air mattress")[0]
	fmt.Printf("\nCOSMO-LM generations for query \"camping\" x %q:\n", p.Title)
	for _, g := range res.CosmoLM.Generate(
		"search query: camping | purchased: "+p.Title, p.Category, "", 3) {
		fmt.Printf("  %-14s %s (score %.2f)\n", g.Relation, g.Text, g.Score)
	}
}
