package experiments

import (
	"fmt"

	"cosmo/internal/folkscope"
	"cosmo/internal/llm"
)

// baselineFolkScope reproduces the Table 1 structural comparison between
// FolkScope and COSMO on the same simulated world, plus the §1 serving
// argument: FolkScope must run the teacher LLM per new behavior, while
// COSMO serves through the instruction-tuned COSMO-LM.
func (r *Runner) baselineFolkScope() error {
	res := r.World()
	fsCfg := folkscope.DefaultConfig()
	fsCfg.Behavior.CoBuyEvents = max(4000, 20000/r.Scale)
	fs, err := folkscope.Run(res.Catalog, fsCfg)
	if err != nil {
		return err
	}
	cosmoStats := r.KGSnapshot().ComputeStats()
	fsStats := fs.KG.Freeze().ComputeStats()
	fmt.Fprintf(r.Out, "%-10s %8s %8s %6s %8s %12s\n",
		"KG", "#Nodes", "#Edges", "#Rels", "#Domains", "behaviors")
	fmt.Fprintf(r.Out, "%-10s %8d %8d %6d %8d %12s\n", "FolkScope",
		fsStats.Nodes, fsStats.Edges, fsStats.Relations, fsStats.Domains, "co-buy")
	fmt.Fprintf(r.Out, "%-10s %8d %8d %6d %8d %12s\n", "COSMO",
		cosmoStats.Nodes, cosmoStats.Edges, cosmoStats.Relations, cosmoStats.Domains,
		"co-buy+search")
	fmt.Fprintf(r.Out, "paper Table 1: FolkScope 1.2M/12M/19 rels/2 domains; COSMO 6.3M/29M/15 rels/18 domains\n")

	// Serving cost per new behavior: FolkScope (teacher+critic) vs COSMO
	// (COSMO-LM generation).
	a := res.Catalog.OfType("camera case")[0]
	b := res.Catalog.OfType("screen protector glass")[0]
	before := fs.ServingCost()
	for i := 0; i < 20; i++ {
		fs.ServeNewBehavior(a, b, 3)
	}
	fsCost := (fs.ServingCost().SimulatedMs - before.SimulatedMs) / 20

	cBefore := res.CosmoLM.Cost()
	for i := 0; i < 20; i++ {
		res.CosmoLM.Generate("co-purchased products: "+a.Title+" and "+b.Title, a.Category, "", 3)
	}
	cAfter := res.CosmoLM.Cost()
	cosmoCost := (cAfter.SimulatedMs - cBefore.SimulatedMs) / 20

	fmt.Fprintf(r.Out, "serving one new behavior: FolkScope %.0fms (teacher %s + critic) vs COSMO-LM %.0fms\n",
		fsCost, llm.OPT30B, cosmoCost)
	fmt.Fprintf(r.Out, "shape check: COSMO covers more domains=%v, cheaper serving=%v\n",
		cosmoStats.Domains > fsStats.Domains, cosmoCost < fsCost)
	return nil
}
