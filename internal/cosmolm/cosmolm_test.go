package cosmolm

import (
	"strings"
	"testing"

	"cosmo/internal/annotation"
	"cosmo/internal/behavior"
	"cosmo/internal/catalog"
	"cosmo/internal/filter"
	"cosmo/internal/instruction"
	"cosmo/internal/know"
	"cosmo/internal/llm"
	"cosmo/internal/textproc"
)

// fixture holds the trained model plus the world it was trained on.
type fixture struct {
	cat   *catalog.Catalog
	log   *behavior.Log
	teach *llm.Teacher
	model *Model
}

// buildFixture runs a miniature offline pipeline: generate → filter →
// annotate → instruction data → train COSMO-LM.
func buildFixture(tb testing.TB) *fixture { return buildFixtureAt(tb, 2, 8000) }

// buildFixtureAt is buildFixture for a behavior seed and event count.
func buildFixtureAt(tb testing.TB, seed int64, events int) *fixture {
	tb.Helper()
	cat := catalog.Generate(catalog.Config{ProductsPerType: 4, Seed: 1})
	log := behavior.Simulate(cat, behavior.Config{
		Seed: seed, CoBuyEvents: events, SearchEvents: events,
		NoiseRate: 0.25, BroadQueryRate: 0.4,
	})
	teach := llm.NewTeacher(cat, llm.DefaultConfig(llm.OPT30B))
	var cands []know.Candidate
	id := 0
	for _, e := range log.SearchBuys {
		p, _ := cat.ByID(e.ProductID)
		for _, g := range teach.GenerateSearchBuy(e.Query, p, 2) {
			id++
			cands = append(cands, know.Candidate{
				ID: id, Behavior: know.SearchBuy, Domain: p.Category,
				Query: e.Query, ProductA: e.ProductID, TypeA: p.Type,
				ContextText: e.Query + " " + p.Title,
				Text:        g.Text, Truth: g.Truth,
				PairIntentional: e.Intentional,
			})
		}
	}
	for _, e := range log.CoBuys[:len(log.CoBuys)/2] {
		pa, _ := cat.ByID(e.A)
		pb, _ := cat.ByID(e.B)
		for _, g := range teach.GenerateCoBuy(pa, pb, 2) {
			id++
			cands = append(cands, know.Candidate{
				ID: id, Behavior: know.CoBuy, Domain: pa.Category,
				ProductA: e.A, ProductB: e.B, TypeA: pa.Type, TypeB: pb.Type,
				ContextText: pa.Title + " and " + pb.Title,
				Text:        g.Text, Truth: g.Truth,
				PairIntentional: e.Intentional,
			})
		}
	}
	kept, _, _ := filter.New(filter.DefaultConfig()).Run(textproc.NewVocab(), cands)
	oracle := annotation.NewOracle(annotation.DefaultConfig())
	anns := oracle.AnnotateAll(kept)
	data := instruction.NewBuilder(instruction.DefaultConfig()).Build(kept, anns)
	model := train(data, DefaultConfig())
	return &fixture{cat: cat, log: log, teach: teach, model: model}
}

// train is Train over a vocabulary of data's inputs alone.
func train(data []instruction.Instance, cfg Config) *Model {
	v := textproc.NewVocab()
	AddInputs(v, data)
	return Train(v, data, cfg)
}

var shared *fixture

func getFixture(tb testing.TB) *fixture {
	if shared == nil {
		shared = buildFixture(tb)
	}
	return shared
}

func TestTrainLearnsTails(t *testing.T) {
	f := getFixture(t)
	if n := f.model.KnownTails(); n < 50 {
		t.Errorf("only %d tails learned", n)
	}
	if len(f.model.Tasks()) != 4 {
		t.Errorf("prediction tasks = %v, want 4", f.model.Tasks())
	}
}

// truthMatch reports whether a generated tail matches one of the
// product's ground-truth intents.
func truthMatch(cat *catalog.Catalog, p catalog.Product, text string) bool {
	for _, in := range cat.IntentsOf(p) {
		if in.Surface() == text {
			return true
		}
	}
	return false
}

func TestGenerationMoreTypicalThanTeacher(t *testing.T) {
	// The paper's central alignment claim: the instruction-tuned model
	// generates typical knowledge at a far higher rate than the raw
	// teacher LLM.
	f := getFixture(t)
	teacherHits, teacherTotal := 0, 0
	modelHits, modelTotal := 0, 0
	evalTeach := llm.NewTeacher(f.cat, llm.DefaultConfig(llm.OPT30B))
	n := 0
	for _, e := range f.log.SearchBuys {
		if !e.Intentional || !e.Broad {
			continue
		}
		n++
		if n > 300 {
			break
		}
		p, _ := f.cat.ByID(e.ProductID)
		for _, g := range evalTeach.GenerateSearchBuy(e.Query, p, 1) {
			teacherTotal++
			if truthMatch(f.cat, p, g.Text) {
				teacherHits++
			}
		}
		for _, g := range f.model.Generate(SearchContext(e.Query, p.Title), p.Category, "", 1) {
			modelTotal++
			if truthMatch(f.cat, p, g.Text) {
				modelHits++
			}
		}
	}
	if teacherTotal == 0 || modelTotal == 0 {
		t.Fatal("no generations to compare")
	}
	teacherRate := float64(teacherHits) / float64(teacherTotal)
	modelRate := float64(modelHits) / float64(modelTotal)
	t.Logf("typicality: teacher=%.3f cosmo-lm=%.3f", teacherRate, modelRate)
	if modelRate <= teacherRate {
		t.Errorf("COSMO-LM typicality %.3f should beat teacher %.3f", modelRate, teacherRate)
	}
	if modelRate < 0.5 {
		t.Errorf("COSMO-LM typicality %.3f too low for serving", modelRate)
	}
}

func TestGenerationCheaperThanTeacher(t *testing.T) {
	f := getFixture(t)
	f.model.ResetCost()
	evalTeach := llm.NewTeacher(f.cat, llm.DefaultConfig(llm.OPT30B))
	p := f.cat.OfType("air mattress")[0]
	for i := 0; i < 100; i++ {
		evalTeach.GenerateSearchBuy("camping", p, 1)
		f.model.Generate(SearchContext("camping", p.Title), p.Category, "", 1)
	}
	tc := evalTeach.Cost()
	mc := f.model.Cost()
	if mc.SimulatedMs*2 >= tc.SimulatedMs {
		t.Errorf("COSMO-LM cost %.0fms not well below teacher %.0fms", mc.SimulatedMs, tc.SimulatedMs)
	}
}

func TestGenerateRespectsRelationFilter(t *testing.T) {
	f := getFixture(t)
	p := f.cat.OfType("air mattress")[0]
	for _, g := range f.model.Generate(SearchContext("camping", p.Title), p.Category, "CAPABLE_OF", 5) {
		if string(g.Relation) != "CAPABLE_OF" {
			t.Errorf("relation filter violated: %s", g.Relation)
		}
	}
}

func TestGenerateRanked(t *testing.T) {
	f := getFixture(t)
	p := f.cat.OfType("dog leash")[0]
	gens := f.model.Generate(SearchContext("dog", p.Title), p.Category, "", 10)
	for i := 1; i < len(gens); i++ {
		if gens[i].Score > gens[i-1].Score {
			t.Fatal("generations not ranked by score")
		}
	}
	for _, g := range gens {
		if !strings.Contains(g.Text, g.Tail) {
			t.Errorf("text %q missing tail %q", g.Text, g.Tail)
		}
	}
}

func TestGenerateUnknownContext(t *testing.T) {
	f := getFixture(t)
	gens := f.model.Generate("xyzzy frobnicate", "", "", 3)
	// Unknown tokens produce no retrieval hits; empty output is correct.
	if len(gens) != 0 {
		t.Errorf("unknown context produced %d generations", len(gens))
	}
}

func TestPredictHeadsSeparateRelevance(t *testing.T) {
	// The search-relevance head must separate intentional search-buy
	// pairs from noise pairs across the behavior distribution.
	f := getFixture(t)
	correct, total := 0, 0
	for i, e := range f.log.SearchBuys {
		if i%7 != 0 { // subsample for speed
			continue
		}
		p, _ := f.cat.ByID(e.ProductID)
		yes, _ := f.model.Predict(instruction.TaskSearchRelevance, SearchContext(e.Query, p.Title))
		if yes == e.Intentional {
			correct++
		}
		total++
	}
	if total == 0 {
		t.Fatal("no pairs evaluated")
	}
	if acc := float64(correct) / float64(total); acc < 0.70 {
		t.Errorf("relevance head accuracy %.3f too low over %d pairs", acc, total)
	}
}

func TestPredictUnknownTask(t *testing.T) {
	f := getFixture(t)
	yes, p := f.model.Predict(instruction.Task("nope"), "anything")
	if yes || p != 0.5 {
		t.Errorf("unknown task should be neutral, got %v %v", yes, p)
	}
}

func TestContextHelpers(t *testing.T) {
	if got := SearchContext("camping", "Acme Tent"); got != "search query: camping | purchased: Acme Tent" {
		t.Errorf("SearchContext = %q", got)
	}
}

func BenchmarkCosmoLMGenerate(b *testing.B) {
	f := getFixture(b)
	p := f.cat.OfType("air mattress")[0]
	ctx := SearchContext("camping", p.Title)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.model.Generate(ctx, p.Category, "", 3)
	}
}
