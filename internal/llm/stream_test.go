package llm

import (
	"math/rand"
	"testing"
)

// lazyTestSeeds are the edge seeds of math/rand's normalization (0 and
// every multiple of 2³¹−1 become 89482311; negatives wrap) plus 300
// per-behavior seeds as the pipeline derives them.
func lazyTestSeeds() []int64 {
	seeds := []int64{0, 1, -1, seedZero, int32max, int32max + 1, 1 << 62, -1 << 62}
	for i := uint64(0); i < 300; i++ {
		seeds = append(seeds, DeriveSeed(DefaultConfig(OPT30B).Seed, i))
	}
	return seeds
}

// TestLazySourceMatchesMathRand: the lazy source is math/rand's seeded
// stream bit for bit, past the 607-word wrap, and a pooled *rand.Rand
// re-Seeded over it draws what a fresh rand.New(rand.NewSource(s))
// draws through every method the teacher uses and some it does not.
func TestLazySourceMatchesMathRand(t *testing.T) {
	var src lazySource
	pooled := rand.New(new(lazySource))
	for _, s := range lazyTestSeeds() {
		src.Seed(s)
		ref := rand.NewSource(s).(rand.Source64)
		for j := 0; j < 3000; j++ {
			if got, want := src.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d, draw %d: Uint64 %#x, math/rand %#x", s, j, got, want)
			}
		}

		pooled.Seed(s)
		fresh := rand.New(rand.NewSource(s))
		var gotBuf, wantBuf [13]byte
		for j := 0; j < 200; j++ {
			if got, want := pooled.Intn(j+1), fresh.Intn(j+1); got != want {
				t.Fatalf("seed %d, call %d: Intn %d, math/rand %d", s, j, got, want)
			}
			if got, want := pooled.Float64(), fresh.Float64(); got != want {
				t.Fatalf("seed %d, call %d: Float64 %v, math/rand %v", s, j, got, want)
			}
			if got, want := pooled.Int63(), fresh.Int63(); got != want {
				t.Fatalf("seed %d, call %d: Int63 %d, math/rand %d", s, j, got, want)
			}
		}
		got, want := pooled.Perm(50), fresh.Perm(50)
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("seed %d: Perm %v, math/rand %v", s, got, want)
			}
		}
		pooled.Shuffle(len(got), func(i, j int) { got[i], got[j] = got[j], got[i] })
		fresh.Shuffle(len(want), func(i, j int) { want[i], want[j] = want[j], want[i] })
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("seed %d: Shuffle %v, math/rand %v", s, got, want)
			}
		}
		// Leaves a partial read position behind, which the next Seed
		// must reset.
		pooled.Read(gotBuf[:])
		fresh.Read(wantBuf[:])
		if gotBuf != wantBuf {
			t.Fatalf("seed %d: Read %x, math/rand %x", s, gotBuf, wantBuf)
		}
	}
}

// FuzzLazySource: any seed, any draw count, on a source that already
// ran another stream (as a pooled one has).
func FuzzLazySource(f *testing.F) {
	for _, s := range []int64{0, 1, -1, seedZero, int32max, 1 << 62} {
		f.Add(s, uint16(700))
	}
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		var src lazySource
		src.Seed(^seed)
		for j := 0; j < int(draws%400); j++ {
			src.Uint64()
		}
		src.Seed(seed)
		ref := rand.NewSource(seed).(rand.Source64)
		for j := 0; j < int(draws%4000); j++ {
			if got, want := src.Int63(), ref.Int63(); got != want {
				t.Fatalf("seed %d, draw %d: Int63 %d, math/rand %d", seed, j, got, want)
			}
		}
	})
}

// refRngAt is the previous per-behavior generator: a freshly seeded
// math/rand source, 607 words filled up front.
func refRngAt(t *Teacher, index uint64) *rand.Rand {
	return rand.New(rand.NewSource(DeriveSeed(t.cfg.Seed, index)))
}

// TestGenerateAtMatchesReference: both At generators produce what they
// produced over a fresh math/rand source, including a behavior long
// enough to wrap the state.
func TestGenerateAtMatchesReference(t *testing.T) {
	c, teach := testTeacher(t)
	a := c.OfType("tent")[0]
	b := c.OfType("sleeping bag")[0]
	p := c.OfType("air mattress")[0]
	same := func(what string, index uint64, got, want []Candidate) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s %d: %d candidates, reference %d", what, index, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("%s %d, candidate %d: %+v, reference %+v", what, index, j, got[j], want[j])
			}
		}
	}
	for i := uint64(0); i < 200; i++ {
		k := 4
		if i%50 == 0 {
			k = 400
		}
		co, sb := CoBuyContext(a, b), SearchBuyContext("camping", p)
		same("co-buy", i, teach.GenerateCoBuyAt(nil, i, a, b, co, k), teach.generateCoBuy(nil, refRngAt(teach, i), a, b, co, k))
		same("search-buy", i, teach.GenerateSearchBuyAt(nil, i, p, sb, k),
			teach.generateSearchBuy(nil, refRngAt(teach, i), p, sb, k))
	}
}

// TestGenerateAtAllocBudget: a warm At call allocates exactly what the
// generation body does over a generator the caller already holds —
// nothing for its own stream.
func TestGenerateAtAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	c, teach := testTeacher(t)
	a := c.OfType("tent")[0]
	b := c.OfType("sleeping bag")[0]
	p := c.OfType("air mattress")[0]
	const index = 7
	co, sb := CoBuyContext(a, b), SearchBuyContext("camping", p)
	dst := make([]Candidate, 0, 4)
	held := rand.New(new(lazySource))
	reseed := func() *rand.Rand {
		held.Seed(DeriveSeed(teach.cfg.Seed, index))
		return held
	}
	for _, tc := range []struct {
		name     string
		at, body func()
	}{
		{"GenerateCoBuyAt",
			func() { teach.GenerateCoBuyAt(dst, index, a, b, co, 4) },
			func() { teach.generateCoBuy(dst, reseed(), a, b, co, 4) }},
		{"GenerateSearchBuyAt",
			func() { teach.GenerateSearchBuyAt(dst, index, p, sb, 4) },
			func() { teach.generateSearchBuy(dst, reseed(), p, sb, 4) }},
	} {
		at := testing.AllocsPerRun(200, tc.at)
		body := testing.AllocsPerRun(200, tc.body)
		if at != body {
			t.Errorf("%s: %v allocs, the generation body alone %v", tc.name, at, body)
		}
	}
}

// BenchmarkTeacherGenerate prices one behavior's stream — seed plus the
// eight draws a two-candidate behavior takes — on the pooled lazy source
// and on the per-behavior math/rand source it replaced, then a whole
// co-buy behavior through GenerateCoBuyAt and five candidates from the
// shared sequential stream.
func BenchmarkTeacherGenerate(b *testing.B) {
	seeds := lazyTestSeeds()
	draws := func(rng *rand.Rand) {
		for j := 0; j < 8; j++ {
			rng.Float64()
		}
	}
	b.Run("stream=lazy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rng := streams.Get().(*rand.Rand)
			rng.Seed(seeds[i%len(seeds)])
			draws(rng)
			streams.Put(rng)
		}
	})
	b.Run("stream=math-rand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			draws(rand.New(rand.NewSource(seeds[i%len(seeds)])))
		}
	})
	b.Run("behavior=co-buy", func(b *testing.B) {
		c, teach := testTeacher(b)
		pa, pb := c.OfType("tent")[0], c.OfType("sleeping bag")[0]
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			teach.GenerateCoBuyAt(nil, uint64(i), pa, pb, CoBuyContext(pa, pb), 2)
		}
	})
	b.Run("shared=co-buy", func(b *testing.B) {
		c, teach := testTeacher(b)
		pa, pb := c.OfType("tent")[0], c.OfType("sleeping bag")[0]
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			teach.GenerateCoBuy(pa, pb, 5)
		}
	})
}
