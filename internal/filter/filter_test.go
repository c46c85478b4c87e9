package filter

import (
	"testing"

	"cosmo/internal/behavior"
	"cosmo/internal/catalog"
	"cosmo/internal/know"
	"cosmo/internal/llm"
	"cosmo/internal/textproc"
)

// buildCandidates generates a realistic candidate corpus from the teacher
// over sampled behaviors.
func buildCandidates(t *testing.T, n int) []know.Candidate {
	t.Helper()
	c := catalog.Generate(catalog.Config{ProductsPerType: 4, Seed: 1})
	log := behavior.Simulate(c, behavior.Config{
		Seed: 2, CoBuyEvents: 4000, SearchEvents: 4000,
		NoiseRate: 0.25, BroadQueryRate: 0.4,
	})
	teach := llm.NewTeacher(c, llm.DefaultConfig(llm.OPT30B))
	var cands []know.Candidate
	id := 0
	for _, e := range log.CoBuys {
		if len(cands) >= n/2 {
			break
		}
		pa, _ := c.ByID(e.A)
		pb, _ := c.ByID(e.B)
		for _, g := range teach.GenerateCoBuy(pa, pb, 2) {
			id++
			cands = append(cands, know.Candidate{
				ID: id, Behavior: know.CoBuy, Domain: pa.Category,
				ProductA: e.A, ProductB: e.B,
				TypeA: pa.Type, TypeB: pb.Type,
				ContextText: pa.Title + " and " + pb.Title,
				Text:        g.Text, Truth: g.Truth,
			})
		}
	}
	for _, e := range log.SearchBuys {
		if len(cands) >= n {
			break
		}
		p, _ := c.ByID(e.ProductID)
		for _, g := range teach.GenerateSearchBuy(e.Query, p, 2) {
			id++
			cands = append(cands, know.Candidate{
				ID: id, Behavior: know.SearchBuy, Domain: p.Category,
				Query: e.Query, ProductA: e.ProductID,
				TypeA:       p.Type,
				ContextText: e.Query + " " + p.Title,
				Text:        g.Text, Truth: g.Truth,
			})
		}
	}
	return cands
}

func TestFilterImprovesPrecision(t *testing.T) {
	cands := buildCandidates(t, 4000)
	f := New(DefaultConfig())
	kept, results, report := f.Run(textproc.NewVocab(), cands)
	if report.Input != len(cands) {
		t.Fatalf("report input %d != %d", report.Input, len(cands))
	}
	if report.Kept != len(kept) {
		t.Fatalf("report kept %d != %d", report.Kept, len(kept))
	}
	if len(results) != len(cands) {
		t.Fatalf("results length %d", len(results))
	}
	plausibleRate := func(cs []know.Candidate) float64 {
		n := 0
		for _, c := range cs {
			if c.Truth.Plausible {
				n++
			}
		}
		return float64(n) / float64(len(cs))
	}
	before := plausibleRate(cands)
	after := plausibleRate(kept)
	if after <= before {
		t.Errorf("filtering should raise plausible rate: %.3f -> %.3f", before, after)
	}
	if len(kept) == 0 || len(kept) == len(cands) {
		t.Errorf("implausible kept count %d of %d", len(kept), len(cands))
	}
}

func TestFilterDropsMostIncomplete(t *testing.T) {
	cands := buildCandidates(t, 3000)
	f := New(DefaultConfig())
	kept, _, _ := f.Run(textproc.NewVocab(), cands)
	in, out := 0, 0
	for _, c := range cands {
		if c.Truth.Mode == llm.ModeIncomplete {
			in++
		}
	}
	for _, c := range kept {
		if c.Truth.Mode == llm.ModeIncomplete {
			out++
		}
	}
	if in == 0 {
		t.Skip("no incomplete candidates")
	}
	// Some truncations happen to read as complete phrases ("used for
	// support the baby") and leak through, as in any real filter; the
	// bulk must be removed.
	if rate := float64(out) / float64(in); rate > 0.30 {
		t.Errorf("incomplete survival rate %.2f too high (%d of %d)", rate, out, in)
	}
}

func TestFilterParsesKept(t *testing.T) {
	cands := buildCandidates(t, 3000)
	f := New(DefaultConfig())
	kept, _, _ := f.Run(textproc.NewVocab(), cands)
	for _, c := range kept {
		if c.Relation == "" || c.Tail == "" {
			t.Errorf("kept candidate missing triple: %+v", c)
		}
	}
}

func TestFilterDropsMostParaphrases(t *testing.T) {
	cands := buildCandidates(t, 4000)
	f := New(DefaultConfig())
	kept, _, _ := f.Run(textproc.NewVocab(), cands)
	para := 0
	for _, c := range kept {
		if c.Truth.Mode == llm.ModeParaphrase {
			para++
		}
	}
	paraIn := 0
	for _, c := range cands {
		if c.Truth.Mode == llm.ModeParaphrase {
			paraIn++
		}
	}
	if paraIn == 0 {
		t.Skip("no paraphrases generated")
	}
	if rate := float64(para) / float64(paraIn); rate > 0.35 {
		t.Errorf("paraphrase survival rate %.2f too high (%d of %d)", rate, para, paraIn)
	}
}

func TestFilterKeepsMostTypical(t *testing.T) {
	cands := buildCandidates(t, 4000)
	f := New(DefaultConfig())
	kept, _, _ := f.Run(textproc.NewVocab(), cands)
	typIn, typKept := 0, 0
	for _, c := range cands {
		if c.Truth.Mode == llm.ModeTypical {
			typIn++
		}
	}
	for _, c := range kept {
		if c.Truth.Mode == llm.ModeTypical {
			typKept++
		}
	}
	if typIn == 0 {
		t.Fatal("no typical candidates in corpus")
	}
	// The paper's goal: "remove quite a large amount of noise and keep
	// typical knowledge as much as possible". Duplicate removal is
	// expected (same typical fact for the same head), so measure recall
	// over distinct keys.
	distinctTyp := map[string]bool{}
	for _, c := range cands {
		if c.Truth.Mode == llm.ModeTypical {
			distinctTyp[c.Key()] = true
		}
	}
	if rate := float64(typKept) / float64(len(distinctTyp)); rate < 0.6 {
		t.Errorf("typical retention %.2f too low (%d of %d distinct)", rate, typKept, len(distinctTyp))
	}
}

func TestFilterDropsDuplicates(t *testing.T) {
	cands := buildCandidates(t, 2000)
	// Duplicate the whole corpus: every kept candidate appears twice.
	dup := append(append([]know.Candidate{}, cands...), cands...)
	f := New(DefaultConfig())
	kept, _, _ := f.Run(textproc.NewVocab(), dup)
	seen := map[string]bool{}
	for _, c := range kept {
		if seen[c.Key()] {
			t.Fatalf("duplicate survived: %q", c.Key())
		}
		seen[c.Key()] = true
	}
}

func TestReportAccountsForEveryCandidate(t *testing.T) {
	cands := buildCandidates(t, 2500)
	f := New(DefaultConfig())
	_, _, report := f.Run(textproc.NewVocab(), cands)
	dropped := 0
	for _, n := range report.Dropped {
		dropped += n
	}
	if report.Kept+dropped != report.Input {
		t.Errorf("kept %d + dropped %d != input %d", report.Kept, dropped, report.Input)
	}
}

func TestEmptyInput(t *testing.T) {
	f := New(DefaultConfig())
	kept, results, report := f.Run(textproc.NewVocab(), nil)
	if len(kept) != 0 || len(results) != 0 || report.Input != 0 {
		t.Error("empty input should produce empty output")
	}
}

func BenchmarkFilterRun(b *testing.B) {
	c := catalog.Generate(catalog.Config{ProductsPerType: 3, Seed: 1})
	teach := llm.NewTeacher(c, llm.DefaultConfig(llm.OPT30B))
	pa := c.OfType("tent")[0]
	pb := c.OfType("sleeping bag")[0]
	var cands []know.Candidate
	for i, g := range teach.GenerateCoBuy(pa, pb, 500) {
		cands = append(cands, know.Candidate{
			ID: i, Behavior: know.CoBuy, Domain: pa.Category,
			ProductA: pa.ID, ProductB: pb.ID, TypeA: pa.Type, TypeB: pb.Type,
			ContextText: pa.Title + " and " + pb.Title,
			Text:        g.Text, Truth: g.Truth,
		})
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := New(DefaultConfig())
		f.Run(textproc.NewVocab(), cands)
	}
}
