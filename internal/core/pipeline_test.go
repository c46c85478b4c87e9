package core

import (
	"testing"

	"cosmo/internal/catalog"
	"cosmo/internal/classifier"
	"cosmo/internal/know"
	"cosmo/internal/textproc"
)

// runOnce caches one pipeline run across tests (it is the expensive
// end-to-end fixture).
var cached *Result

func run(tb testing.TB) *Result {
	tb.Helper()
	if cached != nil {
		return cached
	}
	res, err := Run(DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	cached = res
	return res
}

func TestPipelineEndToEnd(t *testing.T) {
	res := run(t)
	if res.RawCandidates == 0 {
		t.Fatal("no candidates generated")
	}
	if res.FilterReport.Kept == 0 || res.FilterReport.Kept == res.RawCandidates {
		t.Errorf("filter kept %d of %d", res.FilterReport.Kept, res.RawCandidates)
	}
	if len(res.Annotations) == 0 {
		t.Fatal("no annotations")
	}
	if res.KG.NumEdges() == 0 {
		t.Fatal("empty knowledge graph")
	}
	if res.CosmoLM.KnownTails() == 0 {
		t.Fatal("cosmo-lm learned nothing")
	}
}

func TestPipelineAuditQuality(t *testing.T) {
	res := run(t)
	// The paper's bar: audited annotation accuracy above 90%.
	if res.AuditAccuracy < 0.90 {
		t.Errorf("audit accuracy %.3f below the paper's 0.90 bar", res.AuditAccuracy)
	}
}

func TestPipelineAnnotationBudgetRespected(t *testing.T) {
	res := run(t)
	if len(res.Annotations) > DefaultConfig().AnnotationBudget {
		t.Errorf("annotated %d > budget %d", len(res.Annotations), DefaultConfig().AnnotationBudget)
	}
}

func TestPipelineKGPrecision(t *testing.T) {
	// Edges admitted to the KG come from candidates that passed
	// filtering + critic thresholding; their ground-truth plausible rate
	// must be well above the raw generation plausible rate. Measured on
	// the scored candidates the pipeline admitted (teacher provenance).
	res := run(t)
	v := textproc.NewVocab()
	classifier.AddTexts(v, res.Kept)
	scored := res.Critic.Score(v, res.Kept, 1)
	rawPlausible, admittedPlausible, admitted := 0, 0, 0
	for _, c := range scored {
		if c.Truth.Plausible {
			rawPlausible++
		}
		if c.PlausibleScore > DefaultConfig().PlausibilityThreshold {
			admitted++
			if c.Truth.Plausible {
				admittedPlausible++
			}
		}
	}
	if admitted == 0 {
		t.Fatal("nothing admitted")
	}
	rawRate := float64(rawPlausible) / float64(len(scored))
	admittedRate := float64(admittedPlausible) / float64(admitted)
	t.Logf("plausible rate: kept=%.3f admitted=%.3f", rawRate, admittedRate)
	if admittedRate < rawRate {
		t.Errorf("critic thresholding should not lower precision: %.3f -> %.3f", rawRate, admittedRate)
	}
	if admittedRate < 0.85 {
		t.Errorf("admitted plausible rate %.3f too low", admittedRate)
	}
}

func TestPipelineKGCoversAllDomains(t *testing.T) {
	res := run(t)
	stats := res.KG.Freeze().ComputeStats()
	if stats.Domains < 18 {
		t.Errorf("KG covers %d domains, want 18", stats.Domains)
	}
	if stats.Relations < 8 {
		t.Errorf("KG has %d relation types; want broad coverage", stats.Relations)
	}
}

func TestPipelineExpansionAddsEdges(t *testing.T) {
	res := run(t)
	if res.ExpandedEdges == 0 {
		t.Error("COSMO-LM expansion added no edges")
	}
}

func TestPipelineCostAdvantage(t *testing.T) {
	res := run(t)
	// Per-call simulated cost: teacher vs. COSMO-LM.
	tc, cc := res.TeacherCost, res.CosmoLMCost
	if tc.Calls == 0 || cc.Calls == 0 {
		t.Fatal("missing cost accounting")
	}
	perTeacher := tc.SimulatedMs / float64(tc.Calls)
	perCosmo := cc.SimulatedMs / float64(cc.Calls)
	t.Logf("per-call: teacher=%.0fms cosmo-lm=%.0fms", perTeacher, perCosmo)
	if perCosmo*2 > perTeacher {
		t.Errorf("COSMO-LM per-call %.0fms not well below teacher %.0fms", perCosmo, perTeacher)
	}
}

func TestPipelineInstructionCoverage(t *testing.T) {
	res := run(t)
	doms := map[catalog.Category]bool{}
	for _, in := range res.Instruction {
		doms[in.Domain] = true
	}
	if len(doms) < 16 {
		t.Errorf("instruction data covers %d domains; want near 18", len(doms))
	}
}

func TestPipelineBehaviorTypesInKG(t *testing.T) {
	res := run(t)
	co, sb := 0, 0
	for _, e := range res.KG.Edges() {
		switch e.Behavior {
		case know.CoBuy:
			co++
		case know.SearchBuy:
			sb++
		}
	}
	if co == 0 || sb == 0 {
		t.Errorf("KG missing a behavior type: co-buy=%d search-buy=%d", co, sb)
	}
}
