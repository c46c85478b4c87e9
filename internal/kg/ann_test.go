package kg

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"cosmo/internal/relations"
)

// TestSimilarityEdgeCases pins the degenerate inputs: blank queries
// (zero embedding), non-positive k and an empty index answer empty.
func TestSimilarityEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := randomGraph(t, rng, 100).Freeze()
	ix := NewSimilarityIndex(s)
	if got := ix.Lookup("", 5); len(got) != 0 {
		t.Fatalf("blank query returned %d matches", len(got))
	}
	if got := ix.Lookup("camping", 0); len(got) != 0 {
		t.Fatalf("k=0 returned %d matches", len(got))
	}
	if got := ix.Lookup("camping", -1); len(got) != 0 {
		t.Fatalf("k=-1 returned %d matches", len(got))
	}
	if got := NewSimilarityIndex(New().Freeze()).Lookup("camping", 5); len(got) != 0 {
		t.Fatalf("empty index returned %d matches", len(got))
	}
}

// TestSimilarityConcurrent exercises the shared index from many
// goroutines (the serving pattern) so the race detector can see the
// scratch pool discipline.
func TestSimilarityConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s := randomGraph(t, rng, 200).Freeze()
	ix := NewSimilarityIndex(s)
	queries := []string{"camping", "winter camping", "lakeside camping", "holding snacks", "morning runs"}
	done := make(chan []SimilarMatch, 8)
	for w := 0; w < 8; w++ {
		go func() {
			var last []SimilarMatch
			for i := 0; i < 200; i++ {
				last = ix.Lookup(queries[i%len(queries)], 5)
			}
			done <- last
		}()
	}
	want := ix.Lookup(queries[(200-1)%len(queries)], 5)
	for w := 0; w < 8; w++ {
		if got := <-done; !reflect.DeepEqual(got, want) {
			t.Fatalf("concurrent lookup diverged: %+v vs %+v", got, want)
		}
	}
}

// annVocab mixes stems that collapse ("run"/"runs"/"running"), words
// sharing trigrams, and non-ASCII words, so labels embed close together,
// some identically.
var annVocab = []string{
	"camping", "camp", "campsite", "winter", "wintery", "hiking", "hike",
	"hikes", "lake", "lakeside", "snack", "snacks", "holding", "office",
	"work", "working", "dog", "dogs", "walking", "walk", "morning", "run",
	"runs", "running", "kitchen", "cooking", "cook", "baby", "travel",
	"garden", "gardening", "fishing", "beach", "party", "gift", "school",
	"café", "crème", "naïve", "露营", "徒步", "señal", "ünïcödé",
}

// annGraph builds a graph whose intention labels are 1–4 random words
// from annVocab. Each label is attached under one to three relations,
// and every intention node is its own index position, so equal labels
// give equal scores and rank by ID alone.
func annGraph(t testing.TB, rng *rand.Rand, nLabels int) *Graph {
	t.Helper()
	rels := []relations.Relation{
		relations.UsedForEve, relations.CapableOf, relations.UsedBy,
		relations.IsA, relations.UsedInLoc,
	}
	g := New()
	id := 0
	for i := 0; i < nLabels; i++ {
		words := make([]string, 1+rng.Intn(4))
		for j := range words {
			words[j] = annVocab[rng.Intn(len(annVocab))]
		}
		label := strings.Join(words, " ")
		if rng.Intn(25) == 0 {
			label = "!!" // tokenizes to nothing: embeds to zero, never indexed
		}
		for _, r := range rng.Perm(len(rels))[:1+rng.Intn(3)] {
			id++
			c := coBuyCand(id, fmt.Sprintf("P%03d", rng.Intn(40)), fmt.Sprintf("P%03d", rng.Intn(40)), label, rels[r])
			if err := g.AddAssertion(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	return g
}

// annQueries is every intention label of s plus blank, unknown and
// non-ASCII text.
func annQueries(s *Snapshot) []string {
	qs := []string{"", "   ", "?!", "zzqx unknownword", "camping", "露营 camping", "café", "naïve señal ünïcödé", "\xff\xfe invalid"}
	for _, n := range s.Nodes() {
		if n.Type == NodeIntention {
			qs = append(qs, n.Label)
		}
	}
	return qs
}

// TestSimilarityMatchesReference holds Lookup to the sort-everything
// reference (referenceLookup, below) on random graphs, for every
// intention label and odd text as the query and k from -1 to past the
// index size.
func TestSimilarityMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 4; trial++ {
		s := annGraph(t, rng, 40+rng.Intn(80)).Freeze()
		ix := NewSimilarityIndex(s)
		if ix.NumIndexed() == 0 {
			t.Fatal("no intentions indexed")
		}
		CheckSimilarityReference(t, ix, annQueries(s), similarityReferenceKs)
	}
}

// similarityReferenceKs are the depths every reference test checks.
var similarityReferenceKs = []int{1, 5, 10, 80, 1000, 0, -1}

// CheckSimilarityReference checks ix against referenceLookup for every
// (query, k) pair. Exported for the scaled-graph test in package kg_test.
func CheckSimilarityReference(t testing.TB, ix *SimilarityIndex, queries []string, ks []int) {
	t.Helper()
	stride := 1
	if raceEnabled {
		// Every check here runs on one goroutine, so -race adds cost and
		// no coverage: it checks every fourth query; the regular suite
		// checks them all.
		stride = 4
	}
	for qi := 0; qi < len(queries); qi += stride {
		q := queries[qi]
		for _, k := range ks {
			if got, want := ix.Lookup(q, k), referenceLookup(ix, q, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("Lookup(%q, %d) = %+v, reference %+v", q, k, got, want)
			}
		}
	}
}

// FuzzSimilarityLookup checks Lookup against referenceLookup for
// arbitrary (query, k).
func FuzzSimilarityLookup(f *testing.F) {
	s := annGraph(f, rand.New(rand.NewSource(1)), 150).Freeze()
	ix := NewSimilarityIndex(s)
	for i, q := range annQueries(s) {
		f.Add(q, similarityReferenceKs[i%len(similarityReferenceKs)])
	}
	f.Fuzz(func(t *testing.T, q string, k int) {
		if got, want := ix.Lookup(q, k), referenceLookup(ix, q, k); !reflect.DeepEqual(got, want) {
			t.Fatalf("Lookup(%q, %d) = %+v, reference %+v", q, k, got, want)
		}
	})
}

// TestSimilarityLookupAllocBudget pins a lookup's allocations: the
// query's embedding (its vector and the tokenizer's slices) and the
// returned matches. The heap lives in the pool.
func TestSimilarityLookupAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; the alloc guard runs in the regular suite")
	}
	s := annGraph(t, rand.New(rand.NewSource(5)), 200).Freeze()
	ix := NewSimilarityIndex(s)
	for _, k := range []int{1, 10, 1000} {
		ix.Lookup("winter camping", k) // warm the pool
		allocs := testing.AllocsPerRun(200, func() { allocSink += float64(len(ix.Lookup("winter camping", k))) })
		if allocs > similarityLookupAllocs {
			t.Fatalf("Lookup(k=%d) allocates %v per run, budget %d", k, allocs, similarityLookupAllocs)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { allocSink += float64(len(ix.Lookup("camping", 0))) }); allocs != 0 {
		t.Fatalf("Lookup(k=0) allocates %v per run, want 0", allocs)
	}
}

// similarityLookupAllocs is Lookup's allocation budget per query.
const similarityLookupAllocs = 4

// referenceLookup scores every indexed intention with match and sorts
// them all: the answer Lookup's bounded heap must reproduce.
func referenceLookup(ix *SimilarityIndex, q string, k int) []SimilarMatch {
	qvec := ix.model.Embed(q)
	zero := true
	for _, x := range qvec {
		if x != 0 {
			zero = false
			break
		}
	}
	if zero || k <= 0 {
		return emptySimilar
	}
	matches := make([]SimilarMatch, 0, len(ix.nodes))
	for p := range ix.nodes {
		matches = append(matches, match(ix, p, qvec))
	}
	return topKMatches(matches, k)
}

// match scores index position p against the query vector with a serial
// dot product.
func match(ix *SimilarityIndex, p int, qvec []float64) SimilarMatch {
	dim := len(qvec)
	vec := ix.vecs[p*dim : (p+1)*dim]
	dot := 0.0
	for i, x := range vec {
		dot += x * qvec[i]
	}
	sym := ix.nodes[p]
	return SimilarMatch{ID: ix.snap.ids[sym], Label: ix.snap.labels[sym], Score: dot}
}

// topKMatches sorts matches best-first (score descending, ID ascending)
// and returns an owned copy of the top k.
func topKMatches(matches []SimilarMatch, k int) []SimilarMatch {
	sort.Slice(matches, func(i, j int) bool {
		if matches[i].Score != matches[j].Score {
			return matches[i].Score > matches[j].Score
		}
		return matches[i].ID < matches[j].ID
	})
	if k > len(matches) {
		k = len(matches)
	}
	out := make([]SimilarMatch, k)
	copy(out, matches[:k])
	return out
}
