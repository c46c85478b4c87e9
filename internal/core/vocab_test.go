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
// sizing may allocate: 57,342 per op, the most counted at GOMAXPROCS 1,
// 2 and 4 (go1.24.0, amd64) when the build's one vocabulary came in,
// plus 1 %. Map growth is most of what another toolchain's runtime can
// move. By an allocation profile at that sizing (seed 1, 2 workers) the
// count is mostly the build's real output and inputs: the world
// (catalog titles and intents, behavior logs) ≈ 16.1k, the teacher's
// candidates ≈ 13.9k, Stage 8's COSMO-LM generations ≈ 8.1k, the
// instruction data ≈ 3.7k, COSMO-LM training ≈ 3.3k, the vocabulary
// ≈ 3.2k (one lowered copy per distinct mixed-case text, and its
// tables), critic training and KG assembly ≈ 2.2k, sampling ≈ 1.7k and
// canonicalization ≈ 1.0k; the filter's co-occurrence maps and
// per-candidate views make up most of the rest. A change that lowers
// the count tightens the budget in the same diff.
const offlineBuildAllocBudget = 57_915

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
	for _, c := range cands {
		co.Observe(textproc.NormalizeSpace(c.Text), [2]string{c.TypeA, c.TypeB})
	}
	for _, minFreq := range []int{0, cfg.Filter.GenericMinFreq} {
		memo := co.ContextEntropies(minFreq)
		held, generic := 0, 0
		for _, k := range co.Keys() {
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
