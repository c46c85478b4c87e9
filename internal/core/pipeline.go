// Package core orchestrates the COSMO offline knowledge-generation
// pipeline of Figure 2: behavior sampling → QA-prompted teacher
// generation → coarse-grained filtering → re-weighted annotation →
// critic training and scoring → knowledge-graph assembly → instruction
// data → COSMO-LM training → KG expansion with COSMO-LM.
package core

import (
	"fmt"
	"math/rand"

	"cosmo/internal/annotation"
	"cosmo/internal/behavior"
	"cosmo/internal/catalog"
	"cosmo/internal/classifier"
	"cosmo/internal/cosmolm"
	"cosmo/internal/filter"
	"cosmo/internal/instruction"
	"cosmo/internal/kg"
	"cosmo/internal/know"
	"cosmo/internal/llm"
	"cosmo/internal/parallel"
	"cosmo/internal/sampling"
	"cosmo/internal/textproc"
)

// Config assembles the per-stage configurations.
type Config struct {
	Seed        int64
	Catalog     catalog.Config
	Behavior    behavior.Config
	Sampling    sampling.Config
	Teacher     llm.Config
	Filter      filter.Config
	Annotation  annotation.Config
	Instruction instruction.Config
	CosmoLM     cosmolm.Config
	CriticDim   int
	CriticTrain classifier.TrainConfig

	// GenerationsPerBehavior is how many candidates the teacher emits
	// per behavior pair (the paper's numbered-list prompting).
	GenerationsPerBehavior int
	// AnnotationBudget is the number of candidates sent to annotators
	// (the paper uses 15k per behavior type; scale down for tests).
	AnnotationBudget int
	// PlausibilityThreshold gates KG admission ("candidates whose
	// plausibility score is above 0.5 are left").
	PlausibilityThreshold float64
	// ExpandWithCosmoLM controls the final KG-expansion stage: COSMO-LM
	// generates ExpandTopK extra assertions per sampled search behavior.
	ExpandWithCosmoLM bool
	ExpandTopK        int
	// CanonicalizeTails merges intention nodes that differ only by
	// inflection ("walk the dog" / "walking the dogs"), the paper's tail
	// canonicalization step.
	CanonicalizeTails bool

	// Workers bounds the fan-out of the embarrassingly parallel stages
	// (generation, filtering, critic scoring, KG expansion) and of the
	// critic ∥ COSMO-LM stage overlap; <= 0 means GOMAXPROCS, and 1 runs
	// everything sequentially. The worker count never changes the
	// output: every parallel stage draws randomness from per-item derived
	// seeds and merges results in input order, and the overlapped
	// branches share no written state (see DESIGN.md, "Determinism under
	// parallelism").
	Workers int

	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// DefaultConfig returns a laptop-scale end-to-end configuration.
func DefaultConfig() Config {
	return Config{
		Seed:                   42,
		Catalog:                catalog.Config{ProductsPerType: 4, Seed: 1},
		Behavior:               behavior.Config{Seed: 2, CoBuyEvents: 10000, SearchEvents: 10000, NoiseRate: 0.25, BroadQueryRate: 0.4},
		Sampling:               sampling.DefaultConfig(),
		Teacher:                llm.DefaultConfig(llm.OPT30B),
		Filter:                 filter.DefaultConfig(),
		Annotation:             annotation.DefaultConfig(),
		Instruction:            instruction.DefaultConfig(),
		CosmoLM:                cosmolm.DefaultConfig(),
		CriticDim:              1 << 15,
		CriticTrain:            classifier.DefaultTrainConfig(),
		GenerationsPerBehavior: 2,
		AnnotationBudget:       3000,
		PlausibilityThreshold:  0.5,
		ExpandWithCosmoLM:      true,
		ExpandTopK:             2,
		CanonicalizeTails:      true,
	}
}

// Result carries every artifact of a pipeline run.
type Result struct {
	Catalog *catalog.Catalog
	Log     *behavior.Log

	SampledCoBuys     []behavior.CoBuyPair
	SampledSearchBuys []behavior.SearchBuyPair

	RawCandidates int
	FilterReport  filter.Report
	Kept          []know.Candidate

	AnnotatedCandidates []know.Candidate
	Annotations         []annotation.Annotation
	AuditAccuracy       float64

	Critic      *classifier.Critic
	Instruction []instruction.Instance
	CosmoLM     *cosmolm.Model

	KG            *kg.Graph
	ExpandedEdges int

	TeacherCost llm.CostSnapshot
	CosmoLMCost llm.CostSnapshot
}

// Run executes the full offline pipeline.
func Run(cfg Config) (*Result, error) {
	res, _, err := RunExpanded(cfg)
	return res, err
}

// RunExpanded is Run that also hands back Stage 8's expansion: one group
// of admitted COSMO-LM candidates per sampled search behavior, in
// behavior order (nil when cfg.ExpandWithCosmoLM is off). A caller that
// admits the expansion again, as experiments.ScaledKG does per replica,
// takes it from here instead of asking COSMO-LM a second time. The
// groups are not kept on the Result, so a Result holds no more memory
// than Run's.
func RunExpanded(cfg Config) (*Result, [][]know.Candidate, error) {
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	res := &Result{}

	// Stage 0: world.
	res.Catalog = catalog.Generate(cfg.Catalog)
	res.Log = behavior.Simulate(res.Catalog, cfg.Behavior)
	logf("world: %d products, %d co-buy edges, %d search-buy edges",
		res.Catalog.Len(), len(res.Log.CoBuys), len(res.Log.SearchBuys))

	// Stage 1: behavior sampling (§3.2.1).
	smp := sampling.New(res.Log, cfg.Sampling)
	selected := smp.SampleProducts()
	res.SampledCoBuys = smp.SampleCoBuyPairs(selected)
	res.SampledSearchBuys = smp.SampleSearchBuyPairs(selected)
	logf("sampled: %d co-buy pairs, %d search-buy pairs",
		len(res.SampledCoBuys), len(res.SampledSearchBuys))

	// Stage 2: QA-prompted generation (§3.2.2), fanned out across
	// workers; each behavior draws from its own derived seed stream.
	teacher := llm.NewTeacher(res.Catalog, cfg.Teacher)
	cands := generate(res, teacher, cfg.GenerationsPerBehavior, cfg.Workers)
	res.RawCandidates = len(cands)
	logf("generated %d knowledge candidates", len(cands))

	// Stage 3: coarse-grained filtering (§3.3.1); per-candidate checks
	// run across workers against the read-only fitted models. The run's
	// one vocabulary starts here: the filter adds every candidate's first
	// sentence and context to it before its checks fan out, and Stages
	// 5–7 read the kept candidates' texts from it (see DESIGN.md, "One
	// vocabulary per build").
	fcfg := cfg.Filter
	if fcfg.Workers == 0 {
		fcfg.Workers = cfg.Workers
	}
	vocab := textproc.NewVocab()
	kept, _, report := filter.New(fcfg).Run(vocab, cands)
	res.Kept = kept
	res.FilterReport = report
	logf("filter kept %d of %d", report.Kept, report.Input)

	// Stage 4: re-weighted annotation sampling (Eq. 2) + human labels.
	annCands := selectForAnnotation(res, kept, cfg)
	oracle := annotation.NewOracle(cfg.Annotation)
	anns := oracle.AnnotateAll(annCands)
	res.AnnotatedCandidates = annCands
	res.Annotations = anns
	res.AuditAccuracy = oracle.Audit(annCands, anns, 0.05).Accuracy()
	logf("annotated %d candidates (audit accuracy %.3f)", len(anns), res.AuditAccuracy)

	// Stage 7's instruction data is built here, so that its inputs join
	// the vocabulary before the branches below read it, as do the search
	// contexts Stage 8 expands.
	res.Instruction = instruction.NewBuilder(cfg.Instruction).Build(annCands, anns)
	cosmolm.AddInputs(vocab, res.Instruction)
	var expandCtx []string
	if cfg.ExpandWithCosmoLM {
		expandCtx = expandContexts(res, vocab)
	}

	// Stages 5–6 (critic, KG assembly) and Stages 7–8a (COSMO-LM,
	// expansion candidates) read only the filtered and annotated
	// candidates, the instruction data and the vocabulary, and write
	// disjoint Result fields, so the two branches run side by side; at
	// Workers == 1 they run in this order on this goroutine. Progress
	// lines stay here, after the join, in stage order.
	admitted := 0
	var kgErr error
	var expansion [][]know.Candidate
	branches := []func(){
		func() { // Stages 5–6
			admitted, kgErr = criticAndAssemble(res, vocab, kept, annCands, anns, cfg)
		},
		func() { // Stages 7–8a
			res.CosmoLM = cosmolm.Train(vocab, res.Instruction, cfg.CosmoLM)
			if cfg.ExpandWithCosmoLM {
				expansion = expandCandidates(res, vocab, expandCtx, cfg)
			}
		},
	}
	parallel.ForEach(cfg.Workers, branches, func(_ int, branch func()) { branch() })
	if kgErr != nil {
		return nil, nil, kgErr
	}
	logf("kg: admitted %d assertions -> %d nodes, %d edges",
		admitted, res.KG.NumNodes(), res.KG.NumEdges())
	logf("instruction data: %d instances; cosmo-lm tails: %d",
		len(res.Instruction), res.CosmoLM.KnownTails())

	// Stage 8b: KG expansion with COSMO-LM — the step that scales the
	// graph beyond the teacher-generated candidates — admitted in
	// behavior order once the assembled KG exists.
	if cfg.ExpandWithCosmoLM {
		res.ExpandedEdges = admitExpansion(res, expansion)
		logf("kg expansion added %d edges -> %d total", res.ExpandedEdges, res.KG.NumEdges())
	}

	if cfg.CanonicalizeTails {
		before := res.KG.NumNodes()
		res.KG = res.KG.Canonicalize()
		logf("canonicalized tails: %d -> %d nodes", before, res.KG.NumNodes())
	}

	// Relabel product nodes with their catalog titles for readability
	// (expansion may have added nodes, so this runs last).
	for _, n := range res.KG.Nodes() {
		if n.Type != kg.NodeProduct {
			continue
		}
		if p, ok := res.Catalog.ByID(n.Label); ok {
			n.Label = p.Title
			res.KG.AddNode(n)
		}
	}

	res.TeacherCost = teacher.Cost()
	res.CosmoLMCost = res.CosmoLM.Cost()
	return res, expansion, nil
}

// generate runs the teacher over every sampled behavior across workers.
// Each behavior draws from its own derived random stream (master seed ⊕
// behavior index via llm.DeriveSeed), so the candidates for one behavior
// never depend on how many draws other behaviors consumed — the property
// that makes the fan-out order-independent. Search-buy indices are
// offset past the co-buy range to keep the streams disjoint. Every
// behavior yields exactly perBehavior candidates, so each one writes
// into its own window of the result, co-buys first, and a candidate's ID
// is its position plus one: the sequential numbering at any worker count.
func generate(res *Result, teacher *llm.Teacher, perBehavior, workers int) []know.Candidate {
	base := len(res.SampledCoBuys)
	cands := make([]know.Candidate, (base+len(res.SampledSearchBuys))*perBehavior)
	parallel.ForEach(workers, res.SampledCoBuys, func(i int, e behavior.CoBuyPair) {
		pa, _ := res.Catalog.ByID(e.A)
		pb, _ := res.Catalog.ByID(e.B)
		context := llm.CoBuyContext(pa, pb) // one string for the behavior's candidates
		var buf [4]llm.Candidate
		fillWindow(cands, i*perBehavior, teacher.GenerateCoBuyAt(buf[:0], uint64(i), pa, pb, context, perBehavior), know.Candidate{
			Behavior: know.CoBuy, Domain: pa.Category,
			ProductA: e.A, ProductB: e.B, TypeA: pa.Type, TypeB: pb.Type,
			ContextText: context, PairIntentional: e.Intentional,
		})
	})
	parallel.ForEach(workers, res.SampledSearchBuys, func(i int, e behavior.SearchBuyPair) {
		p, _ := res.Catalog.ByID(e.ProductID)
		context := llm.SearchBuyContext(e.Query, p)
		var buf [4]llm.Candidate
		fillWindow(cands, (base+i)*perBehavior, teacher.GenerateSearchBuyAt(buf[:0], uint64(base+i), p, context, perBehavior), know.Candidate{
			Behavior: know.SearchBuy, Domain: p.Category,
			Query: e.Query, ProductA: e.ProductID, TypeA: p.Type,
			ContextText: context, PairIntentional: e.Intentional,
		})
	})
	return cands
}

// fillWindow writes one behavior's generations, each on a copy of head,
// into cands from position at on, numbering each by its position.
func fillWindow(cands []know.Candidate, at int, gens []llm.Candidate, head know.Candidate) {
	for j, g := range gens {
		head.ID, head.Text, head.Truth = at+j+1, g.Text, g.Truth
		cands[at+j] = head
	}
}

// selectForAnnotation applies the Eq. 2 re-weighting to pick the
// annotation sample from the kept candidates.
func selectForAnnotation(res *Result, kept []know.Candidate, cfg Config) []know.Candidate {
	if cfg.AnnotationBudget >= len(kept) {
		return kept
	}
	// Knowledge frequency f(t): how often each tail text occurs.
	freq := map[string]int{}
	for _, c := range kept {
		freq[c.Text]++
	}
	weights := make([]float64, len(kept))
	for i, c := range kept {
		popQ := res.Log.QueryDegree(c.Query)
		popP := res.Log.CoBuyDegree(c.ProductA) + res.Log.ProductQueryDegree(c.ProductA)
		weights[i] = sampling.AnnotationWeight(freq[c.Text], popQ, popP)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	idxs := sampling.WeightedSample(rng, weights, cfg.AnnotationBudget)
	out := make([]know.Candidate, len(idxs))
	for i, idx := range idxs {
		out[i] = kept[idx]
	}
	return out
}

// criticAndAssemble is Stages 5–6: it trains the critic on the annotated
// sample (§3.3.2), scores every kept candidate, and assembles the KG
// from those whose plausibility passes the threshold. It returns how many
// assertions it admitted. The texts of kept, and so of annCands, are in
// v.
func criticAndAssemble(res *Result, v *textproc.Vocab, kept, annCands []know.Candidate, anns []annotation.Annotation, cfg Config) (int, error) {
	labeled := make([]classifier.Labeled, len(annCands))
	for i := range annCands {
		labeled[i] = classifier.Labeled{
			Candidate: annCands[i],
			Plausible: anns[i].Plausible(),
			Typical:   anns[i].Typical(),
		}
	}
	res.Critic = classifier.TrainCritic(cfg.CriticDim, v, labeled, cfg.CriticTrain)
	scored := res.Critic.Score(v, kept, cfg.Workers)

	res.KG = kg.New()
	admitted := 0
	for _, c := range scored {
		if c.PlausibleScore <= cfg.PlausibilityThreshold {
			continue
		}
		if err := res.KG.AddAssertion(c); err != nil {
			return 0, fmt.Errorf("core: kg assembly: %w", err)
		}
		admitted++
	}
	return admitted, nil
}

// expandContexts returns the COSMO-LM context of every sampled search
// behavior of res, in behavior order, and adds their sides to v.
func expandContexts(res *Result, v *textproc.Vocab) []string {
	ctxs := make([]string, len(res.SampledSearchBuys))
	for i, e := range res.SampledSearchBuys {
		p, _ := res.Catalog.ByID(e.ProductID)
		ctxs[i] = cosmolm.SearchContext(e.Query, p.Title)
		cosmolm.AddInput(v, ctxs[i])
	}
	return ctxs
}

// expandCandidates is Stage 8's admission rule: COSMO-LM generates
// cfg.ExpandTopK assertions for every sampled search behavior of res,
// from its context ctxs[i] (whose sides are in v), and those whose
// predicted plausibility passes cfg.PlausibilityThreshold are kept, per
// behavior in behavior order. Generation and the two prediction heads
// fan out across cfg.Workers (the trained model and v are read-only);
// admission is order-sensitive (the graph dedupes edges), so
// admitExpansion runs it sequentially over the order-preserved groups.
func expandCandidates(res *Result, v *textproc.Vocab, ctxs []string, cfg Config) [][]know.Candidate {
	return parallel.Map(cfg.Workers, res.SampledSearchBuys, func(i int, e behavior.SearchBuyPair) []know.Candidate {
		p, _ := res.Catalog.ByID(e.ProductID)
		scored := res.CosmoLM.GenerateScored(v, ctxs[i], p.Category, cfg.ExpandTopK)
		n := 0 // the group is sized exactly: callers such as ScaledKG keep it
		for _, g := range scored {
			if g.Plausibility > cfg.PlausibilityThreshold {
				n++
			}
		}
		if n == 0 {
			return nil
		}
		out := make([]know.Candidate, 0, n)
		for _, g := range scored {
			if g.Plausibility <= cfg.PlausibilityThreshold {
				continue
			}
			out = append(out, know.Candidate{
				Behavior: know.SearchBuy, Domain: p.Category,
				Query: e.Query, ProductA: e.ProductID, TypeA: p.Type,
				Relation: g.Relation, Tail: g.Tail, Text: g.Text,
				PlausibleScore: g.Plausibility, TypicalScore: g.Typicality,
			})
		}
		return out
	})
}

// admitExpansion admits expansion candidates into the KG in behavior
// order and returns the number of edges added.
func admitExpansion(res *Result, groups [][]know.Candidate) int {
	added := 0
	for _, group := range groups {
		for _, c := range group {
			before := res.KG.NumEdges()
			if err := res.KG.AddAssertion(c); err == nil && res.KG.NumEdges() > before {
				added += res.KG.NumEdges() - before
			}
		}
	}
	return added
}
