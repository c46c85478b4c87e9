package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"

	"cosmo/internal/annotation"
	"cosmo/internal/classifier"
	"cosmo/internal/core"
	"cosmo/internal/cosmolm"
	"cosmo/internal/filter"
	"cosmo/internal/instruction"
	"cosmo/internal/know"
	"cosmo/internal/llm"
	"cosmo/internal/navigation"
	"cosmo/internal/sampling"
	"cosmo/internal/serving"
	"cosmo/internal/textproc"
)

// Experiment RNG seeds. Each ancillary study draws from its own named,
// fixed seed so a run is reproducible and the provenance of every
// random stream is traceable to the study that owns it (the pipeline
// stages themselves seed from core.Config).
const (
	// trafficSeed drives the Zipf-like query stream that the serving
	// and cache-ablation studies replay against the deployment.
	trafficSeed int64 = 77
	// samplingAblationSeed drives the Eq.2-weighted vs uniform
	// annotation-sample draws in ablationSampling.
	samplingAblationSeed int64 = 7
	// generationOnlySeed seeds the generation-only instruction builder
	// in the task-ablation study.
	generationOnlySeed int64 = 29
)

func (r *Runner) figure8() error {
	roots := r.KGSnapshot().BuildHierarchy(2)
	fmt.Fprintf(r.Out, "intention hierarchy: %d roots (showing top 5)\n", len(roots))
	n := 5
	if n > len(roots) {
		n = len(roots)
	}
	for _, root := range roots[:n] {
		fmt.Fprint(r.Out, root.Render(2))
	}
	return nil
}

// rewriteStudy quantifies the §4.2.4 future-work hypothesis: COSMO
// navigation reduces the query rewrites users need to reach their
// intent.
func (r *Runner) rewriteStudy() error {
	res := r.World()
	nav := navigation.NewNavigator(r.KGSnapshot(), 2)
	study := navigation.NewRewriteStudy(res.Catalog, nav)
	out := study.Run(9, max(1000, 20000/r.Scale), 5)
	fmt.Fprintf(r.Out, "mean query rewrites per satisfied session: control=%.2f, with COSMO navigation=%.2f\n",
		out.ControlRewrites, out.TreatmentRewrites)
	fmt.Fprintf(r.Out, "satisfaction within 5 turns: control=%.1f%%, navigation=%.1f%%\n",
		out.ControlSatisfied*100, out.TreatSatisfied*100)
	fmt.Fprintf(r.Out, "shape check: navigation reduces rewrites=%v without losing satisfaction=%v\n",
		out.TreatmentRewrites <= out.ControlRewrites, out.TreatSatisfied >= out.ControlSatisfied)
	return nil
}

func (r *Runner) abtest() error {
	res := r.World()
	nav := navigation.NewNavigator(r.KGSnapshot(), 2)
	cfg := navigation.DefaultABConfig()
	cfg.Visitors = max(100000, 2000000/r.Scale)
	result := navigation.NewExperiment(res.Catalog, nav, cfg).Run()
	fmt.Fprintf(r.Out, "visitors: control=%d treatment=%d (%.1f%% treated; paper ~10%%)\n",
		result.ControlVisitors, result.TreatmentVisitors,
		100*float64(result.TreatmentVisitors)/float64(cfg.Visitors))
	fmt.Fprintf(r.Out, "relative sales lift: %+.2f%% (paper: +0.7%%)\n", result.SalesLift()*100)
	fmt.Fprintf(r.Out, "navigation engagement rate: %.1f%% (paper: ~8%%)\n", result.EngagementRate()*100)
	fmt.Fprintf(r.Out, "shape check: positive small lift=%v, engagement near 8%%=%v\n",
		result.SalesLift() > 0 && result.SalesLift() < 0.15,
		result.EngagementRate() > 0.03 && result.EngagementRate() < 0.2)
	return nil
}

// yearlyLayer warms the yearly cache layer with the head of yesterday's
// traffic: every query seen at least 20 times in its first quarter.
func yearlyLayer(ctx context.Context, responder serving.ContextResponder, traffic []string) ([]serving.Feature, error) {
	warm := map[string]int{}
	for _, q := range traffic[:len(traffic)/4] {
		warm[q]++
	}
	var yearly []serving.Feature
	for q, c := range warm {
		if c >= 20 {
			f, err := responder.RespondContext(ctx, q)
			if err != nil {
				return nil, fmt.Errorf("yearly layer: %q: %w", q, err)
			}
			f.Query = q
			yearly = append(yearly, f)
		}
	}
	return yearly, nil
}

// trafficQueries builds a Zipf-like query stream from the behavior log.
func (r *Runner) trafficQueries(n int) []string {
	res := r.World()
	var pool []string
	for _, e := range res.SampledSearchBuys {
		pool = append(pool, e.Query)
	}
	rng := rand.New(rand.NewSource(trafficSeed))
	out := make([]string, n)
	for i := range out {
		// Square the uniform draw to skew toward the head of the pool,
		// approximating daily traffic concentration.
		idx := int(rng.Float64() * rng.Float64() * float64(len(pool)))
		out[i] = pool[idx]
	}
	return out
}

func (r *Runner) serving() error {
	_, err := r.servingOn(serving.RealClock{})
	return err
}

// servingOn runs Figure 5 with the node's handler timed on clock: the
// Zipf /intent traffic goes through NewHTTPHandler in process, and the
// latency line reads the measured intent histogram. It returns the
// deployment for tests.
func (r *Runner) servingOn(clock serving.Clock) (*serving.Deployment, error) {
	ctx := context.Background()
	responder := serving.ModelResponder(r.World().CosmoLM)
	dep := serving.NewDeploymentContext(serving.DeployConfig{DailyCacheCap: 256}, responder)
	dep.Clock = clock
	handler := serving.NewHTTPHandler(dep)
	traffic := r.trafficQueries(max(20000, 100000/r.Scale))
	yearly, err := yearlyLayer(ctx, responder, traffic)
	if err != nil {
		return nil, err
	}
	dep.Cache.PreloadYearly(yearly)
	for i, q := range traffic {
		handler.ServeHTTP(httptest.NewRecorder(),
			httptest.NewRequest(http.MethodGet, "/intent?q="+url.QueryEscape(q), nil))
		if i%200 == 0 {
			dep.RunBatchContext(ctx, 64)
		}
	}
	dep.RunBatchContext(ctx, 1<<20)
	stats := dep.Cache.Stats()
	lat := dep.Latency("intent")
	p50, p99 := lat.Quantile(0.50), lat.Quantile(0.99)
	perCall := r.World().CosmoLM.Cost()
	inline := perCall.SimulatedMs / float64(perCall.Calls)
	fmt.Fprintf(r.Out, "traffic: %d requests, yearly layer %d entries, daily cap 256\n",
		len(traffic), stats.YearlySize)
	fmt.Fprintf(r.Out, "cache hit rate: %.1f%% (yearly %d / daily %d hits)\n",
		stats.HitRate()*100, stats.YearlyHits, stats.DailyHits)
	fmt.Fprintf(r.Out, "request latency (measured /intent handler): p50=%.3fms p99=%.3fms vs inline model inference ≈%.0fms\n",
		p50, p99, inline)
	fmt.Fprintf(r.Out, "shape check: cached latency ≪ inline inference = %v; hit rate > 80%% = %v\n",
		p99 < inline/5, stats.HitRate() > 0.8)
	return dep, nil
}

func (r *Runner) latency() error {
	res := r.World()
	tc := res.TeacherCost
	cc := res.CosmoLM.Cost()
	perTeacher := tc.SimulatedMs / float64(tc.Calls)
	perCosmo := cc.SimulatedMs / float64(cc.Calls)
	fmt.Fprintf(r.Out, "%-22s %10s %14s %14s\n", "model", "calls", "total (ms)", "per call (ms)")
	fmt.Fprintf(r.Out, "%-22s %10d %14.0f %14.1f\n", "teacher "+string(llm.OPT30B), tc.Calls, tc.SimulatedMs, perTeacher)
	fmt.Fprintf(r.Out, "%-22s %10d %14.0f %14.1f\n", "COSMO-LM (7b-class)", cc.Calls, cc.SimulatedMs, perCosmo)
	fmt.Fprintf(r.Out, "speedup: %.1fx (paper: instruction-finetuned models with fewer parameters offer\n", perTeacher/perCosmo)
	fmt.Fprintf(r.Out, "significant inference-efficiency advantages enabling online serving)\n")
	return nil
}

func (r *Runner) ablationFilter() error {
	res := r.World()
	// Rebuild the raw candidate corpus deterministically.
	teach := llm.NewTeacher(res.Catalog, llm.DefaultConfig(llm.OPT30B))
	raw := rebuildCandidates(res, teach)
	variants := []struct {
		name string
		mod  func(*filter.Config)
	}{
		{"full filter", func(c *filter.Config) {}},
		{"no perplexity", func(c *filter.Config) { c.PerplexityQuantile = 1.0 }},
		{"no similarity", func(c *filter.Config) { c.MaxContextSimilarity = 1.01 }},
		{"no generic", func(c *filter.Config) { c.GenericMinFreq = 1 << 30 }},
		{"no copy rule", func(c *filter.Config) { c.MaxEditDistanceRatio = -1 }},
	}
	fmt.Fprintf(r.Out, "%-14s %8s %10s %12s\n", "variant", "kept", "plausible", "typical-rate")
	vocab := textproc.NewVocab() // every variant reads the same texts
	for _, v := range variants {
		cfg := filter.DefaultConfig()
		v.mod(&cfg)
		kept, _, _ := filter.New(cfg).Run(vocab, raw)
		plaus, typ := 0, 0
		for _, c := range kept {
			if c.Truth.Plausible {
				plaus++
			}
			if c.Truth.Typical {
				typ++
			}
		}
		if len(kept) == 0 {
			fmt.Fprintf(r.Out, "%-14s %8d %10s %12s\n", v.name, 0, "-", "-")
			continue
		}
		fmt.Fprintf(r.Out, "%-14s %8d %9.1f%% %11.1f%%\n", v.name, len(kept),
			100*float64(plaus)/float64(len(kept)), 100*float64(typ)/float64(len(kept)))
	}
	return nil
}

func (r *Runner) ablationSampling() error {
	// The paper's claim for Eq. 2: "uniform sampling might hurt the
	// prediction performance on long-tail knowledge". Train one critic
	// on an Eq.2-weighted annotation sample and one on a uniform sample
	// of the same budget, then compare typicality accuracy on held-out
	// candidates whose contexts are unpopular (the long tail).
	res := r.World()
	kept := res.Kept
	// Hold out a deterministic third of the kept candidates for testing.
	var pool, heldOut []know.Candidate
	for i, c := range kept {
		if i%3 == 0 {
			heldOut = append(heldOut, c)
		} else {
			pool = append(pool, c)
		}
	}
	budget := len(pool) / 4
	freq := map[string]int{}
	for _, c := range pool {
		freq[c.Text]++
	}
	popOf := func(c know.Candidate) int {
		return res.Log.QueryDegree(c.Query) +
			res.Log.CoBuyDegree(c.ProductA) + res.Log.ProductQueryDegree(c.ProductA)
	}
	weights := make([]float64, len(pool))
	uniform := make([]float64, len(pool))
	for i, c := range pool {
		popQ := res.Log.QueryDegree(c.Query)
		popP := res.Log.CoBuyDegree(c.ProductA) + res.Log.ProductQueryDegree(c.ProductA)
		weights[i] = sampling.AnnotationWeight(freq[c.Text], popQ, popP)
		uniform[i] = 1
	}
	// Split held-out candidates into popular head vs long tail by median
	// context popularity.
	pops := make([]int, len(heldOut))
	for i, c := range heldOut {
		pops[i] = popOf(c)
	}
	sorted := append([]int{}, pops...)
	slices.Sort(sorted)
	median := sorted[len(sorted)/2]
	var tail []know.Candidate
	for i, c := range heldOut {
		if pops[i] < median {
			tail = append(tail, c)
		}
	}
	rng := rand.New(rand.NewSource(samplingAblationSeed))
	oracle := annotation.NewOracle(annotation.DefaultConfig())
	v := textproc.NewVocab()
	classifier.AddTexts(v, kept)
	trainCritic := func(ws []float64) *classifier.Critic {
		idxs := sampling.WeightedSample(rng, ws, budget)
		var labeled []classifier.Labeled
		for _, i := range idxs {
			a := oracle.Annotate(pool[i])
			labeled = append(labeled, classifier.Labeled{
				Candidate: pool[i], Plausible: a.Plausible(), Typical: a.Typical(),
			})
		}
		return classifier.TrainCritic(1<<15, v, labeled, classifier.DefaultTrainConfig())
	}
	accOn := func(c *classifier.Critic, test []know.Candidate) float64 {
		if len(test) == 0 {
			return 0
		}
		correct := 0
		var x []int
		for _, cd := range test {
			x = c.Feat.AppendFeatures(x[:0], v, cd)
			p := c.Typical.Prob(x)
			if (p >= 0.5) == cd.Truth.Typical {
				correct++
			}
		}
		return float64(correct) / float64(len(test))
	}
	weighted := trainCritic(weights)
	uniformC := trainCritic(uniform)
	wAcc := accOn(weighted, tail)
	uAcc := accOn(uniformC, tail)
	fmt.Fprintf(r.Out, "annotation budget: %d of %d pool candidates; long-tail test set: %d\n",
		budget, len(pool), len(tail))
	fmt.Fprintf(r.Out, "long-tail typicality accuracy: Eq.2-weighted=%.3f, uniform=%.3f\n", wAcc, uAcc)
	fmt.Fprintf(r.Out, "shape check: re-weighted annotation helps long-tail prediction = %v\n", wAcc >= uAcc)
	return nil
}

func (r *Runner) ablationTasks() error {
	res := r.World()
	// Full 5-task instruction data vs generation-only.
	full := res.CosmoLM
	data := instruction.NewBuilder(instruction.Config{
		Seed:         generationOnlySeed,
		IncludeTasks: []instruction.Task{instruction.TaskGenerate},
	}).Build(res.AnnotatedCandidates, res.Annotations)
	v := textproc.NewVocab()
	cosmolm.AddInputs(v, data)
	genOnly := cosmolm.Train(v, data, cosmolm.DefaultConfig())
	fmt.Fprintf(r.Out, "%-18s %8s %12s\n", "variant", "tails", "pred. tasks")
	fmt.Fprintf(r.Out, "%-18s %8d %12d\n", "all 5 tasks", full.KnownTails(), len(full.Tasks()))
	fmt.Fprintf(r.Out, "%-18s %8d %12d\n", "generation only", genOnly.KnownTails(), len(genOnly.Tasks()))
	// Without prediction heads the expansion stage cannot score new
	// assertions, so KG expansion degrades to nothing.
	_, p := genOnly.Predict(instruction.TaskPlausibility, "search query: camping | explanation: x")
	fmt.Fprintf(r.Out, "generation-only plausibility head output: %.2f (neutral 0.50 — expansion cannot filter)\n", p)
	fmt.Fprintf(r.Out, "full-model KG expansion added %d edges\n", res.ExpandedEdges)
	return nil
}

func (r *Runner) ablationCache() error {
	ctx := context.Background()
	responder := serving.ModelResponder(r.World().CosmoLM)
	traffic := r.trafficQueries(max(20000, 100000/r.Scale))
	yearly, err := yearlyLayer(ctx, responder, traffic)
	if err != nil {
		return err
	}
	run := func(yearly []serving.Feature) serving.CacheStats {
		dep := serving.NewDeploymentContext(serving.DeployConfig{DailyCacheCap: 256}, responder)
		dep.Cache.PreloadYearly(yearly)
		for i, q := range traffic {
			dep.HandleQuery(q)
			if i%200 == 0 {
				dep.RunBatchContext(ctx, 64)
			}
		}
		return dep.Cache.Stats()
	}
	two := run(yearly)
	one := run(nil)
	fmt.Fprintf(r.Out, "%-26s %10s %12s\n", "variant", "hit rate", "misses")
	fmt.Fprintf(r.Out, "%-26s %9.1f%% %12d\n", "two-layer (yearly+daily)", two.HitRate()*100, two.Misses)
	fmt.Fprintf(r.Out, "%-26s %9.1f%% %12d\n", "one-layer (daily only)", one.HitRate()*100, one.Misses)
	fmt.Fprintf(r.Out, "shape check: two-layer hit rate higher = %v\n", two.HitRate() > one.HitRate())
	return nil
}

// rebuildCandidates regenerates the raw candidate corpus from the
// sampled behaviors (the same procedure as the pipeline's stage 2, with
// a fresh teacher so the pipeline's own RNG state is untouched).
func rebuildCandidates(res *core.Result, teach *llm.Teacher) []know.Candidate {
	var cands []know.Candidate
	id := 0
	for _, e := range res.SampledCoBuys {
		pa, _ := res.Catalog.ByID(e.A)
		pb, _ := res.Catalog.ByID(e.B)
		for _, g := range teach.GenerateCoBuy(pa, pb, 2) {
			id++
			cands = append(cands, know.Candidate{
				ID: id, Behavior: know.CoBuy, Domain: pa.Category,
				ProductA: e.A, ProductB: e.B, TypeA: pa.Type, TypeB: pb.Type,
				ContextText:     pa.Title + " and " + pb.Title,
				Text:            g.Text,
				Truth:           g.Truth,
				PairIntentional: e.Intentional,
			})
		}
	}
	for _, e := range res.SampledSearchBuys {
		p, _ := res.Catalog.ByID(e.ProductID)
		for _, g := range teach.GenerateSearchBuy(e.Query, p, 2) {
			id++
			cands = append(cands, know.Candidate{
				ID: id, Behavior: know.SearchBuy, Domain: p.Category,
				Query: e.Query, ProductA: e.ProductID, TypeA: p.Type,
				ContextText:     e.Query + " " + p.Title,
				Text:            g.Text,
				Truth:           g.Truth,
				PairIntentional: e.Intentional,
			})
		}
	}
	return cands
}
