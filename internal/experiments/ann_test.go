package experiments

import (
	"testing"

	"cosmo/internal/kg"
)

// TestSimilarityDeterministic: builds over equal snapshots must answer
// identically — the property that makes the /similar benchmarks and the
// RCU swap (old and new index serving side by side briefly) well-behaved.
func TestSimilarityDeterministic(t *testing.T) {
	r, _ := runner(t)
	snap, err := r.World().KG.FreezeChecked()
	if err != nil {
		t.Fatal(err)
	}
	a := kg.NewSimilarityIndex(snap)
	b := kg.NewSimilarityIndex(snap)
	for _, q := range []string{"camping", "tent for winter", "waterproof boots"} {
		am, bm := a.Lookup(q, 5), b.Lookup(q, 5)
		if len(am) != len(bm) {
			t.Fatalf("lookup %q: %d vs %d matches across identical builds", q, len(am), len(bm))
		}
		for i := range am {
			if am[i] != bm[i] {
				t.Fatalf("lookup %q: match %d differs: %+v vs %+v", q, i, am[i], bm[i])
			}
		}
	}
}
