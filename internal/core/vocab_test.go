package core

import (
	"math"
	"testing"

	"cosmo/internal/behavior"
	"cosmo/internal/catalog"
	"cosmo/internal/know"
	"cosmo/internal/llm"
	"cosmo/internal/sampling"
	"cosmo/internal/textproc"
)

// offlineBuildAllocBudget is what one core.Run at the offline-build
// sizing may allocate: 22,302 per op, the most counted at GOMAXPROCS 1,
// 2 and 4 (go1.24.0, amd64) once world lookups became views and
// per-event strings were made once, plus 1 %. Map growth is most of what
// another toolchain's runtime can move. By an allocation profile at that
// sizing (seed 1, 2 workers) the count is the build's output and inputs:
// the teacher's candidates with their contexts and noise texts ≈ 3.8k,
// the instruction data ≈ 3.7k, the world ≈ 3.2k (catalog IDs and titles
// ≈ 2.6k, behavior logs ≈ 0.6k), critic training and KG assembly
// ≈ 2.2k, Stage 8's scored generations and admitted candidates ≈ 2.1k
// and its search contexts ≈ 1.0k, COSMO-LM training ≈ 1.8k, the filter
// with the vocabulary ≈ 1.7k and canonicalization ≈ 1.0k. A change that
// lowers the count tightens the budget in the same diff.
const offlineBuildAllocBudget = 22_525

// TestOfflineBuildAllocBudget: one offline build allocates within its
// budget. Run it with -cpu 1,2,4: the count must hold at any P count.
func TestOfflineBuildAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	cfg := harnessConfig(1, 2)
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("core.Run at the offline-build sizing: %v allocs", allocs)
	if allocs > offlineBuildAllocBudget {
		t.Errorf("core.Run allocates %v times, budget %d", allocs, offlineBuildAllocBudget)
	}
}

// benchCandidates runs Stages 0–2 of the offline-build sizing at seed 1:
// the teacher's candidates the filter receives.
func benchCandidates() ([]know.Candidate, Config) {
	cfg := harnessConfig(1, 2)
	res := &Result{Catalog: catalog.Generate(cfg.Catalog)}
	res.Log = behavior.Simulate(res.Catalog, cfg.Behavior)
	smp := sampling.New(res.Log, cfg.Sampling)
	selected := smp.SampleProducts()
	res.SampledCoBuys = smp.SampleCoBuyPairs(selected)
	res.SampledSearchBuys = smp.SampleSearchBuyPairs(selected)
	return generate(res, llm.NewTeacher(res.Catalog, cfg.Teacher), cfg.GenerationsPerBehavior, cfg.Workers), cfg
}

// TestContextEntropyMemoMatchesPerKey: the filter's memo of the generic
// test, ContextEntropies after the co-occurrence pass over the bench
// world's candidates, holds exactly the strings generated at least
// GenericMinFreq times, each with ContextEntropy's value bit for bit.
func TestContextEntropyMemoMatchesPerKey(t *testing.T) {
	cands, cfg := benchCandidates()
	co := textproc.NewCooccurrenceStats[[2]string]()
	keys := map[string]bool{} // every string observed
	for _, c := range cands {
		k := textproc.NormalizeSpace(c.Text)
		co.Observe(k, [2]string{c.TypeA, c.TypeB})
		keys[k] = true
	}
	for _, minFreq := range []int{0, cfg.Filter.GenericMinFreq} {
		memo := co.ContextEntropies(minFreq)
		held, generic := 0, 0
		for k := range keys {
			h, ok := memo[k]
			if ok != (co.Frequency(k) >= minFreq) {
				t.Fatalf("minFreq %d: %q (frequency %d) in memo = %v", minFreq, k, co.Frequency(k), ok)
			}
			if !ok {
				continue
			}
			held++
			if want := co.ContextEntropy(k); math.Float64bits(h) != math.Float64bits(want) {
				t.Fatalf("minFreq %d: memo entropy of %q = %v, ContextEntropy %v", minFreq, k, h, want)
			}
			if h >= cfg.Filter.GenericMinEntropy && co.DistinctContexts(k) >= cfg.Filter.GenericMinContexts {
				generic++
			}
		}
		if held != len(memo) || generic == 0 {
			t.Fatalf("minFreq %d: memo holds %d strings, %d keys match, %d generic", minFreq, len(memo), held, generic)
		}
	}
}
