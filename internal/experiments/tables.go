package experiments

import (
	"fmt"

	"cosmo/internal/annotation"
	"cosmo/internal/catalog"
	"cosmo/internal/know"
	"cosmo/internal/llm"
	"cosmo/internal/relations"
	"cosmo/internal/relevance"
	"cosmo/internal/session"
)

func (r *Runner) table1() error {
	s := r.KGSnapshot().ComputeStats()
	fmt.Fprintf(r.Out, "%-10s %10s %10s %6s %8s\n", "KG", "#Nodes", "#Edges", "#Rels", "#Domains")
	fmt.Fprintf(r.Out, "%-10s %10s %10s %6d %8s\n", "paper", "6.3M", "29M", 15, "18")
	fmt.Fprintf(r.Out, "%-10s %10d %10d %6d %8d\n", "measured",
		s.Nodes, s.Edges, s.Relations, s.Domains)
	fmt.Fprintf(r.Out, "shape check: relations within taxonomy=%v, all 18 domains=%v\n",
		s.Relations <= relations.Count(), s.Domains == 18)
	return nil
}

func (r *Runner) table2() error {
	res := r.World()
	// Re-run the teacher on a sample of behaviors to recover the raw
	// generation corpus, then mine predicate patterns from it.
	teach := llm.NewTeacher(res.Catalog, llm.DefaultConfig(llm.OPT30B))
	var gens []string
	for i, e := range res.SampledCoBuys {
		if i >= 400 {
			break
		}
		pa, _ := res.Catalog.ByID(e.A)
		pb, _ := res.Catalog.ByID(e.B)
		for _, g := range teach.GenerateCoBuy(pa, pb, 2) {
			gens = append(gens, g.Text)
		}
	}
	for i, e := range res.SampledSearchBuys {
		if i >= 400 {
			break
		}
		p, _ := res.Catalog.ByID(e.ProductID)
		for _, g := range teach.GenerateSearchBuy(e.Query, p, 2) {
			gens = append(gens, g.Text)
		}
	}
	pats := relations.MinePatterns(gens, 5)
	rels := relations.DiscoverTaxonomy(gens, 5)
	fmt.Fprintf(r.Out, "mined %d predicate patterns over %d generations\n", len(pats), len(gens))
	for _, p := range pats {
		fmt.Fprintf(r.Out, "  %-30s count=%-6d -> %s\n", p.Prefix, p.Count, p.Canonical)
	}
	fmt.Fprintf(r.Out, "discovered %d canonical relations (paper: 15): %v\n", len(rels), rels)
	return nil
}

func (r *Runner) table3() error {
	res := r.World()
	coPairs := map[catalog.Category]int{}
	for _, e := range res.SampledCoBuys {
		p, _ := res.Catalog.ByID(e.A)
		coPairs[p.Category]++
	}
	sbPairs := map[catalog.Category]int{}
	for _, e := range res.SampledSearchBuys {
		p, _ := res.Catalog.ByID(e.ProductID)
		sbPairs[p.Category]++
	}
	anns := map[catalog.Category]int{}
	for _, c := range res.AnnotatedCandidates {
		anns[c.Domain]++
	}
	kgStats := r.KGSnapshot().ComputeStats()
	fmt.Fprintf(r.Out, "%-28s %8s %8s %6s %8s %8s\n",
		"Category", "co-pairs", "sb-pairs", "annot", "co-edges", "sb-edges")
	totCo, totSb, totAnn, totCoE, totSbE := 0, 0, 0, 0, 0
	for _, cat := range sortedCategories() {
		ds := kgStats.PerDomain[cat]
		fmt.Fprintf(r.Out, "%-28s %8d %8d %6d %8d %8d\n",
			cat, coPairs[cat], sbPairs[cat], anns[cat], ds.CoBuyEdges, ds.SearchBuyEdges)
		totCo += coPairs[cat]
		totSb += sbPairs[cat]
		totAnn += anns[cat]
		totCoE += ds.CoBuyEdges
		totSbE += ds.SearchBuyEdges
	}
	fmt.Fprintf(r.Out, "%-28s %8d %8d %6d %8d %8d\n", "Total", totCo, totSb, totAnn, totCoE, totSbE)
	fmt.Fprintf(r.Out, "paper totals: co-pairs 3.15M, sb-pairs 1.87M, annotations 30k, edges 24.9M + 5.1M\n")
	return nil
}

func (r *Runner) table4() error {
	res := r.World()
	var coAnns, sbAnns []annotation.Annotation
	for i, c := range res.AnnotatedCandidates {
		if c.Behavior == know.CoBuy {
			coAnns = append(coAnns, res.Annotations[i])
		} else {
			sbAnns = append(sbAnns, res.Annotations[i])
		}
	}
	coP, coT := annotation.Ratios(coAnns)
	sbP, sbT := annotation.Ratios(sbAnns)
	fmt.Fprintf(r.Out, "%-12s %12s %12s\n", "behavior", "plausibility", "typicality")
	fmt.Fprintf(r.Out, "%-12s %12.1f%% %12.1f%%\n", "co-buy", coP*100, coT*100)
	fmt.Fprintf(r.Out, "%-12s %12.1f%% %12.1f%%\n", "search-buy", sbP*100, sbT*100)
	fmt.Fprintf(r.Out, "paper: search-buy typicality 35.0%%; co-buy typicality notably lower\n")
	fmt.Fprintf(r.Out, "shape check: search-buy typicality > co-buy typicality = %v\n", sbT > coT)
	return nil
}

func (r *Runner) table5() error {
	res := r.World()
	gen := relevance.NewGenerator(res.Catalog, nil)
	fmt.Fprintf(r.Out, "%-8s %8s %8s %8s %8s %8s\n",
		"locale", "train", "test", "exact", "uniq-q", "uniq-p")
	for _, loc := range relevance.Locales(r.localeScale()) {
		ds := gen.Generate(loc)
		s := relevance.ComputeStats(ds)
		fmt.Fprintf(r.Out, "%-8s %8d %8d %8d %8d %8d\n",
			s.Locale, s.TrainPairs, s.TestPairs, s.ExactPairs, s.UniqueQueries, s.UniqueProducts)
	}
	fmt.Fprintf(r.Out, "paper train sizes: KDD 1.39M, US 1.15M, CA 0.22M, UK 0.46M, IN 1.48M (ratios preserved)\n")
	return nil
}

// table6Paper holds the paper's Table 6 values for side-by-side output.
var table6Paper = map[string][4]float64{
	// fixedMacro, fixedMicro, trainMacro, trainMicro
	"Bi-encoder":              {25.52, 65.49, 47.96, 70.23},
	"Cross-encoder":           {28.44, 66.84, 57.49, 74.23},
	"Cross-encoder w/ Intent": {45.52, 86.40, 73.48, 90.78},
}

func (r *Runner) table6() error {
	res := r.World()
	gen := relevance.NewGenerator(res.Catalog, cosmoLMRelevanceKnowledge(res))
	loc := relevance.Locales(r.localeScale())[0] // KDD Cup
	ds := gen.Generate(loc)
	fmt.Fprintf(r.Out, "%-26s | %-21s | %-21s\n", "", "Fixed Encoder", "Trainable Encoder")
	fmt.Fprintf(r.Out, "%-26s | %10s %10s | %10s %10s\n", "Method", "MacroF1", "MicroF1", "MacroF1", "MicroF1")
	type row struct {
		arch relevance.Arch
		name string
	}
	var measured [3][4]float64
	rows := []row{
		{relevance.BiEncoder, "Bi-encoder"},
		{relevance.CrossEncoder, "Cross-encoder"},
		{relevance.CrossEncoderIntent, "Cross-encoder w/ Intent"},
	}
	for i, rw := range rows {
		fm, fi := relevance.TrainAndEvaluate(relevance.DefaultModelConfig(rw.arch, false), ds)
		tm, ti := relevance.TrainAndEvaluate(relevance.DefaultModelConfig(rw.arch, true), ds)
		measured[i] = [4]float64{fm * 100, fi * 100, tm * 100, ti * 100}
		p := table6Paper[rw.name]
		fmt.Fprintf(r.Out, "%-26s | %10.2f %10.2f | %10.2f %10.2f   (paper: %.2f %.2f | %.2f %.2f)\n",
			rw.name, measured[i][0], measured[i][1], measured[i][2], measured[i][3],
			p[0], p[1], p[2], p[3])
	}
	fmt.Fprintf(r.Out, "Δ intent vs cross (fixed macro): measured %+.1f%%, paper +60.1%%\n",
		100*(measured[2][0]-measured[1][0])/measured[1][0])
	fmt.Fprintf(r.Out, "shape check: intent>cross>bi (fixed macro) = %v\n",
		measured[2][0] > measured[1][0] && measured[1][0] > measured[0][0])
	return nil
}

// avgOverSeeds trains and evaluates a config over several model seeds
// and returns the mean macro F1 — single-seed small-data training is too
// noisy for a per-locale comparison.
func avgOverSeeds(arch relevance.Arch, trainable bool, ds relevance.Dataset, seeds int) float64 {
	total := 0.0
	for s := 0; s < seeds; s++ {
		cfg := relevance.DefaultModelConfig(arch, trainable)
		cfg.Seed = int64(7 + s)
		m, _ := relevance.TrainAndEvaluate(cfg, ds)
		total += m
	}
	return total / float64(seeds)
}

func (r *Runner) figure7() error {
	res := r.World()
	gen := relevance.NewGenerator(res.Catalog, cosmoLMRelevanceKnowledge(res))
	locales := relevance.Locales(r.localeScale())[1:] // US, CA, UK, IN
	// Keep every locale inside a trainable band: below ~800 pairs the
	// encoders are noise-dominated and the comparison meaningless.
	for i := range locales {
		locales[i].TrainPairs = clamp(locales[i].TrainPairs, 800, 2500)
		locales[i].TestPairs = clamp(locales[i].TestPairs, 400, 800)
	}
	for _, setting := range []struct {
		name      string
		trainable bool
	}{{"fixed (Figure 7a)", false}, {"tuned (Figure 7b)", true}} {
		fmt.Fprintf(r.Out, "-- %s --\n", setting.name)
		fmt.Fprintf(r.Out, "%-8s %14s %18s %8s\n", "locale", "cross macroF1", "+intent macroF1", "Δ")
		for _, loc := range locales {
			ds := gen.Generate(loc)
			cm := avgOverSeeds(relevance.CrossEncoder, setting.trainable, ds, 3)
			im := avgOverSeeds(relevance.CrossEncoderIntent, setting.trainable, ds, 3)
			fmt.Fprintf(r.Out, "%-8s %14.2f %18.2f %+7.1f%%\n",
				loc.Name, cm*100, im*100, 100*(im-cm)/cm)
		}
	}
	fmt.Fprintf(r.Out, "paper shape: intent-enhanced cross-encoder wins on every locale in both settings\n")
	return nil
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func (r *Runner) table7() error {
	res := r.World()
	n := max(600, 4000/r.Scale)
	el := session.Build(res.Catalog, session.ElectronicsConfig(n))
	cl := session.Build(res.Catalog, session.ClothingConfig(n))
	fmt.Fprintf(r.Out, "%-12s %-6s %10s %12s %12s %14s\n",
		"domain", "split", "#sessions", "avg sess len", "avg query", "avg uniq query")
	for _, d := range []struct {
		name string
		ds   *session.Dataset
	}{{"clothing", cl}, {"electronics", el}} {
		for _, sp := range []struct {
			name string
			seqs []session.Seq
		}{{"train", d.ds.Train}, {"dev", d.ds.Dev}, {"test", d.ds.Test}} {
			s := session.ComputeStats(sp.seqs)
			fmt.Fprintf(r.Out, "%-12s %-6s %10d %12.2f %12.2f %14.2f\n",
				d.name, sp.name, s.Sessions, s.AvgSessLen, s.AvgQueryLen, s.AvgUniqQueryLen)
		}
	}
	fmt.Fprintf(r.Out, "paper: clothing len 8.79 uniq-q 1.36; electronics len 12.27 uniq-q 2.47\n")
	return nil
}

// table8Paper holds the paper's Table 8 Hits@10 values for reference.
var table8Paper = map[string][2]float64{
	"FPMC":      {62.16, 21.79},
	"GRU4Rec":   {83.20, 49.53},
	"STAMP":     {81.34, 56.96},
	"CSRM":      {82.31, 61.66},
	"SRGNN":     {85.82, 67.83},
	"GC-SAN":    {84.43, 66.88},
	"GCE-GNN":   {86.67, 70.13},
	"COSMO-GNN": {90.18, 74.21},
}

func (r *Runner) table8() error {
	res := r.World()
	kfn := cosmoLMSessionKnowledge(res)
	n := max(900, 4000/r.Scale)
	cfg := session.DefaultTrainConfig()
	cfg.Epochs = 4
	cfg.MaxTrainSessions = max(400, 1600/r.Scale)
	domains := []struct {
		name string
		ds   *session.Dataset
	}{
		{"clothing", session.Build(res.Catalog, session.ClothingConfig(n))},
		{"electronics", session.Build(res.Catalog, session.ElectronicsConfig(n))},
	}
	models := func() []session.Recommender {
		return []session.Recommender{
			session.NewFPMC(), session.NewGRU4Rec(), session.NewSTAMP(),
			session.NewCSRM(), session.NewSRGNN(), session.NewGCSAN(),
			session.NewGCEGNN(), session.NewCOSMOGNN(kfn),
		}
	}
	results := map[string]map[string][3]float64{}
	for _, d := range domains {
		results[d.name] = map[string][3]float64{}
		for _, m := range models() {
			m.Fit(d.ds, cfg)
			h, nd, mr := session.Evaluate(m, d.ds.Test, 10)
			results[d.name][m.Name()] = [3]float64{h * 100, nd * 100, mr * 100}
		}
	}
	fmt.Fprintf(r.Out, "%-10s | %-27s | %-27s\n", "", "clothing", "electronics")
	fmt.Fprintf(r.Out, "%-10s | %8s %8s %8s | %8s %8s %8s\n",
		"Method", "Hits@10", "NDCG@10", "MRR@10", "Hits@10", "NDCG@10", "MRR@10")
	for _, name := range []string{"FPMC", "GRU4Rec", "STAMP", "CSRM", "SRGNN", "GC-SAN", "GCE-GNN", "COSMO-GNN"} {
		c := results["clothing"][name]
		e := results["electronics"][name]
		p := table8Paper[name]
		fmt.Fprintf(r.Out, "%-10s | %8.2f %8.2f %8.2f | %8.2f %8.2f %8.2f   (paper Hits: %.2f / %.2f)\n",
			name, c[0], c[1], c[2], e[0], e[1], e[2], p[0], p[1])
	}
	cg := results["clothing"]["COSMO-GNN"][0]
	cb := results["clothing"]["GCE-GNN"][0]
	eg := results["electronics"]["COSMO-GNN"][0]
	eb := results["electronics"]["GCE-GNN"][0]
	fmt.Fprintf(r.Out, "Δ COSMO-GNN vs GCE-GNN Hits@10: clothing %+.1f%% (paper +4.05%%), electronics %+.1f%% (paper +5.82%%)\n",
		100*(cg-cb)/cb, 100*(eg-eb)/eb)
	return nil
}

func (r *Runner) table9() error {
	res := r.World()
	fmt.Fprintf(r.Out, "%-28s %s\n", "Category", "COSMO-LM generation example")
	for _, cat := range sortedCategories() {
		types := res.Catalog.TypesInCategory(cat)
		example := "(no generation)"
		for _, tn := range types {
			ps := res.Catalog.OfType(tn)
			if len(ps) == 0 {
				continue
			}
			p := ps[0]
			gens := res.CosmoLM.Generate(
				"search query: "+tn+" | purchased: "+p.Title, cat, "", 1)
			if len(gens) > 0 {
				example = gens[0].Text
				break
			}
		}
		fmt.Fprintf(r.Out, "%-28s %s\n", cat, example)
	}
	return nil
}
