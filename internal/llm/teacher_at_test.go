package llm

import (
	"testing"
)

// TestGenerateAtOrderIndependent: the At variants must be pure functions
// of (seed, index) — interleaving, repetition, and reversal of calls
// cannot change any item's candidates. This is the property the parallel
// pipeline's stage-2 fan-out relies on.
func TestGenerateAtOrderIndependent(t *testing.T) {
	c, teach := testTeacher(t)
	a := c.OfType("tent")[0]
	b := c.OfType("sleeping bag")[0]
	p := c.OfType("air mattress")[0]

	const n = 40
	forward := make([][]Candidate, n)
	for i := 0; i < n; i++ {
		forward[i] = teach.GenerateCoBuyAt(nil, uint64(i), a, b, CoBuyContext(a, b), 3)
	}
	// Reverse order, with interleaved unrelated draws on the shared
	// sequential stream and other indices.
	for i := n - 1; i >= 0; i-- {
		teach.GenerateSearchBuy("camping", p, 2)
		teach.GenerateSearchBuyAt(nil, uint64(1000+i), p, SearchBuyContext("camping", p), 2)
		got := teach.GenerateCoBuyAt(nil, uint64(i), a, b, CoBuyContext(a, b), 3)
		if len(got) != len(forward[i]) {
			t.Fatalf("index %d: %d vs %d candidates", i, len(got), len(forward[i]))
		}
		for j := range got {
			if got[j] != forward[i][j] {
				t.Fatalf("index %d candidate %d differs across call orders:\n%+v\nvs\n%+v",
					i, j, got[j], forward[i][j])
			}
		}
	}
}

// TestGenerateAtDistinctStreams: different indices draw from independent
// streams (identical output across all indices would mean the index is
// being ignored).
func TestGenerateAtDistinctStreams(t *testing.T) {
	c, teach := testTeacher(t)
	a := c.OfType("tent")[0]
	b := c.OfType("sleeping bag")[0]
	distinct := map[string]bool{}
	for i := 0; i < 32; i++ {
		for _, cd := range teach.GenerateCoBuyAt(nil, uint64(i), a, b, CoBuyContext(a, b), 2) {
			distinct[cd.Text] = true
		}
	}
	if len(distinct) < 2 {
		t.Fatalf("32 indices produced %d distinct texts; streams are not independent", len(distinct))
	}
}

// TestGenerateAtSearchBuyDeterministic: same (index, query, product)
// always yields identical candidates.
func TestGenerateAtSearchBuyDeterministic(t *testing.T) {
	c, teach := testTeacher(t)
	p := c.OfType("air mattress")[0]
	g1 := teach.GenerateSearchBuyAt(nil, 7, p, SearchBuyContext("camping", p), 5)
	g2 := teach.GenerateSearchBuyAt(nil, 7, p, SearchBuyContext("camping", p), 5)
	for i := range g1 {
		if g1[i] != g2[i] {
			t.Fatalf("candidate %d differs on repeat call", i)
		}
	}
}

func TestDeriveSeed(t *testing.T) {
	seen := map[int64]uint64{}
	for i := uint64(0); i < 10000; i++ {
		s := DeriveSeed(42, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision between indices %d and %d", prev, i)
		}
		seen[s] = i
	}
	if DeriveSeed(42, 5) == DeriveSeed(43, 5) {
		t.Error("different master seeds derived the same stream seed")
	}
}
