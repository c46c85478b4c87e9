package kg_test

import (
	"io"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"cosmo/internal/experiments"
	"cosmo/internal/kg"
)

// The serving-shaped index: the KG the bench harness serves
// (experiments.ScaledKG(6) over a scale-4 world, 57k edges). ScaledKG
// replicates behavior heads but shares the intention tails, so the index
// holds the base world's intentions at every factor. Built once per test
// binary.
var (
	scaledOnce    sync.Once
	scaledSnap    *kg.Snapshot
	scaledQueries []string // distinct search-query labels, sorted
)

func scaledIndexWorld(tb testing.TB) (*kg.Snapshot, []string) {
	tb.Helper()
	scaledOnce.Do(func() {
		g, err := experiments.NewRunner(io.Discard, 4).ScaledKG(6)
		if err != nil {
			panic(err)
		}
		if scaledSnap, err = g.FreezeChecked(); err != nil {
			panic(err)
		}
		seen := map[string]bool{}
		for _, n := range scaledSnap.Nodes() {
			if n.Type == kg.NodeQuery && !seen[n.Label] {
				seen[n.Label] = true
				scaledQueries = append(scaledQueries, n.Label)
			}
		}
		slices.Sort(scaledQueries)
	})
	return scaledSnap, scaledQueries
}

// TestSimilarityMatchesReferenceScaled runs TestSimilarityMatchesReference's
// check on the serving-shaped index: every intention label and every
// search query, at the serving shape and a narrow one.
func TestSimilarityMatchesReferenceScaled(t *testing.T) {
	snap, searches := scaledIndexWorld(t)
	queries := []string{"", "zzqx unknownword", "露营 camping", "café crème"}
	for _, n := range snap.Nodes() {
		if n.Type == kg.NodeIntention {
			queries = append(queries, n.Label)
		}
	}
	queries = append(queries, searches...)
	for _, cfg := range []kg.SimilarityConfig{{Seed: 1}, {Tables: 2, Bits: 3, Seed: 7}} {
		ix := kg.BuildSimilarityIndex(snap, cfg)
		t.Logf("%+v: %d indexed, %d queries", ix.Config(), ix.NumIndexed(), len(queries))
		kg.CheckSimilarityReference(t, ix, queries, []int{1, 5, 10, 80, 1000})
	}
}

// BenchmarkSimilarityLookup prices one /similar lookup (k=10) on the
// serving-shaped index, over search queries in a seeded Zipf order.
func BenchmarkSimilarityLookup(b *testing.B) {
	snap, searches := scaledIndexWorld(b)
	ix := kg.BuildSimilarityIndex(snap, kg.SimilarityConfig{Seed: 1})
	zipf := rand.NewZipf(rand.New(rand.NewSource(1)), 1.1, 1, uint64(len(searches)-1))
	queries := make([]string, 4096)
	for i := range queries {
		queries[i] = searches[zipf.Uint64()]
	}
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		n += len(ix.Lookup(queries[i%len(queries)], 10))
	}
	if n == 0 {
		b.Fatal("no lookup found anything")
	}
}

// BenchmarkSimilarityBuild prices building the serving-shaped index, as
// every snapshot load and refresh does.
func BenchmarkSimilarityBuild(b *testing.B) {
	snap, _ := scaledIndexWorld(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if kg.BuildSimilarityIndex(snap, kg.SimilarityConfig{Seed: 1}).NumIndexed() == 0 {
			b.Fatal("nothing indexed")
		}
	}
}
