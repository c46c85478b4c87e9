package filter

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"cosmo/internal/know"
	"cosmo/internal/textproc"
)

// TestFilterWorkersEquivalence: the filter's output — kept candidates,
// per-candidate trace, and report — must be identical for any worker
// count, and equal to the reference Run's. Duplicate detection is the
// order-sensitive rule this guards. The checks fan out over runs of
// equal context, so the corpus is also run shuffled, where equal
// contexts are mostly not adjacent and one behavior's context is scored
// from several runs.
func TestFilterWorkersEquivalence(t *testing.T) {
	built := buildCandidates(t, 3000)
	shuffled := slices.Clone(built)
	rand.New(rand.NewSource(5)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	if adjacent := equalAdjacentContexts(shuffled); adjacent*10 > len(shuffled) {
		t.Fatalf("shuffled corpus keeps %d of %d contexts next to an equal one", adjacent, len(shuffled))
	}
	for name, cands := range map[string][]know.Candidate{"built": built, "shuffled": shuffled} {
		refKept, refResults, refReport := refRun(DefaultConfig(), cands)
		for _, workers := range []int{1, 2, 3, 8} {
			cfg := DefaultConfig()
			cfg.Workers = workers
			kept, results, report := New(cfg).Run(textproc.NewVocab(), cands)
			if !reflect.DeepEqual(refKept, kept) {
				t.Fatalf("%s, workers=%d: kept candidates differ from the reference", name, workers)
			}
			if !reflect.DeepEqual(refResults, results) {
				t.Fatalf("%s, workers=%d: per-candidate results differ from the reference", name, workers)
			}
			if !reflect.DeepEqual(refReport, report) {
				t.Fatalf("%s, workers=%d: report differs from the reference", name, workers)
			}
		}
	}
}

// equalAdjacentContexts counts the candidates whose ContextText equals
// the one before.
func equalAdjacentContexts(cands []know.Candidate) int {
	n := 0
	for i := 1; i < len(cands); i++ {
		if cands[i].ContextText == cands[i-1].ContextText {
			n++
		}
	}
	return n
}
