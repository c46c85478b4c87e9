// Package folkscope implements the FolkScope baseline (Yu et al., 2023)
// that COSMO extends. FolkScope distills intention knowledge from
// co-purchase behaviors only, in two domains, with classifier filtering
// but no instruction-tuned student model: every new behavior must go
// through teacher-LLM generation plus classifier scoring, which is the
// inference bottleneck §1 of the COSMO paper calls out.
//
// The implementation reuses the shared substrates (teacher, filter,
// annotation, critics, KG) restricted exactly as the FolkScope paper
// describes, so COSMO-vs-FolkScope comparisons isolate COSMO's
// contributions: search-buy behaviors, 18-domain scale-up, and the
// instruction-tuned COSMO-LM.
package folkscope

import (
	"fmt"

	"cosmo/internal/annotation"
	"cosmo/internal/behavior"
	"cosmo/internal/catalog"
	"cosmo/internal/classifier"
	"cosmo/internal/filter"
	"cosmo/internal/kg"
	"cosmo/internal/know"
	"cosmo/internal/llm"
	"cosmo/internal/sampling"
	"cosmo/internal/textproc"
)

// Config parameterizes the baseline run.
type Config struct {
	Seed int64
	// Domains restricts the pipeline; FolkScope covered two domains
	// (Clothing and Electronics in the original paper's evaluation).
	Domains []catalog.Category
	// Behavior, Sampling, Teacher, Filter, Annotation mirror the COSMO
	// stages that FolkScope shares.
	Behavior   behavior.Config
	Sampling   sampling.Config
	Teacher    llm.Config
	Filter     filter.Config
	Annotation annotation.Config
	CriticDim  int
	Train      classifier.TrainConfig

	GenerationsPerBehavior int
	AnnotationBudget       int
	PlausibilityThreshold  float64
}

// DefaultConfig matches FolkScope's published scope.
func DefaultConfig() Config {
	return Config{
		Seed:                   42,
		Domains:                []catalog.Category{catalog.Clothing, catalog.Electronics},
		Behavior:               behavior.Config{Seed: 2, CoBuyEvents: 10000, SearchEvents: 0, NoiseRate: 0.25},
		Sampling:               sampling.DefaultConfig(),
		Teacher:                llm.DefaultConfig(llm.OPT30B),
		Filter:                 filter.DefaultConfig(),
		Annotation:             annotation.DefaultConfig(),
		CriticDim:              1 << 15,
		Train:                  classifier.DefaultTrainConfig(),
		GenerationsPerBehavior: 2,
		AnnotationBudget:       1500,
		PlausibilityThreshold:  0.5,
	}
}

// Result carries the baseline's artifacts.
type Result struct {
	Catalog *catalog.Catalog
	KG      *kg.Graph
	Critic  *classifier.Critic

	RawCandidates int
	Kept          int
	// TeacherCost is the offline distillation cost.
	TeacherCost llm.CostSnapshot
	// teacher and critic are retained because FolkScope must serve new
	// behaviors through them (no student model).
	teacher *llm.Teacher
}

// Run executes the FolkScope pipeline over an existing catalog.
func Run(cat *catalog.Catalog, cfg Config) (*Result, error) {
	res := &Result{Catalog: cat}
	inDomain := map[catalog.Category]bool{}
	for _, d := range cfg.Domains {
		inDomain[d] = true
	}
	log := behavior.Simulate(cat, cfg.Behavior)
	smp := sampling.New(log, cfg.Sampling)
	selected := smp.SampleProducts()
	pairs := smp.SampleCoBuyPairs(selected)

	res.teacher = llm.NewTeacher(cat, cfg.Teacher)
	var cands []know.Candidate
	id := 0
	for _, e := range pairs {
		pa, _ := cat.ByID(e.A)
		pb, _ := cat.ByID(e.B)
		// Two-domain restriction: FolkScope's scope.
		if !inDomain[pa.Category] {
			continue
		}
		for _, g := range res.teacher.GenerateCoBuy(pa, pb, cfg.GenerationsPerBehavior) {
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
	res.RawCandidates = len(cands)

	v := textproc.NewVocab()
	kept, _, _ := filter.New(cfg.Filter).Run(v, cands)
	res.Kept = len(kept)

	// FolkScope's fine-grained two-step annotation (plausibility then
	// typicality) is approximated by the shared oracle; the annotation
	// budget matches its thousands-of-pairs scale.
	budget := cfg.AnnotationBudget
	if budget > len(kept) {
		budget = len(kept)
	}
	oracle := annotation.NewOracle(cfg.Annotation)
	annCands := kept[:budget]
	anns := oracle.AnnotateAll(annCands)
	labeled := make([]classifier.Labeled, len(annCands))
	for i := range annCands {
		labeled[i] = classifier.Labeled{
			Candidate: annCands[i],
			Plausible: anns[i].Plausible(),
			Typical:   anns[i].Typical(),
		}
	}
	res.Critic = classifier.TrainCritic(cfg.CriticDim, v, labeled, cfg.Train)

	res.KG = kg.New()
	for _, c := range res.Critic.Score(v, kept, 1) {
		if c.PlausibleScore <= cfg.PlausibilityThreshold {
			continue
		}
		if err := res.KG.AddAssertion(c); err != nil {
			return nil, fmt.Errorf("folkscope: kg assembly: %w", err)
		}
	}
	res.TeacherCost = res.teacher.Cost()
	return res, nil
}

// ServeNewBehavior answers a new co-buy behavior the FolkScope way: run
// the teacher LLM, score with the critic, and return the best passing
// knowledge. This is the pipeline the COSMO paper says "is not feasible
// for online serving" — the returned cost snapshot delta quantifies why.
func (r *Result) ServeNewBehavior(a, b catalog.Product, k int) []know.Candidate {
	gens := r.teacher.GenerateCoBuy(a, b, k)
	cands := make([]know.Candidate, 0, len(gens))
	for i, g := range gens {
		cands = append(cands, know.Candidate{
			ID: i, Behavior: know.CoBuy, Domain: a.Category,
			ProductA: a.ID, ProductB: b.ID, TypeA: a.Type, TypeB: b.Type,
			ContextText: a.Title + " and " + b.Title,
			Text:        g.Text, Truth: g.Truth,
		})
	}
	v := textproc.NewVocab()
	classifier.AddTexts(v, cands)
	scored := r.Critic.Score(v, cands, 1)
	out := scored[:0]
	for _, c := range scored {
		if c.PlausibleScore > 0.5 {
			out = append(out, c)
		}
	}
	return out
}

// ServingCost returns the accumulated teacher cost including online
// serving calls made through ServeNewBehavior.
func (r *Result) ServingCost() llm.CostSnapshot { return r.teacher.Cost() }
