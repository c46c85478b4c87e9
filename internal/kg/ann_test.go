package kg

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"cosmo/internal/relations"
)

// TestSimilarityLookupSmallIndex: on an index smaller than the
// candidate floor, no ring holds the floor and Lookup takes every
// position, so it must equal Exact entry for entry — scores included,
// since both rescore by the same cosine.
func TestSimilarityLookupSmallIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := randomGraph(t, rng, 250).Freeze()
	ix := BuildSimilarityIndex(s, SimilarityConfig{Seed: 3})
	if ix.NumIndexed() == 0 {
		t.Fatal("no intentions indexed")
	}
	queries := []string{"camping", "winter camping", "office work", "walking the dog", "unrelated gibberish zzz"}
	for _, q := range queries {
		for _, k := range []int{1, 3, 50} {
			exact := ix.Exact(q, k)
			ann := ix.Lookup(q, k)
			if !reflect.DeepEqual(exact, ann) {
				t.Fatalf("Lookup(%q, %d) = %+v, want exact %+v", q, k, ann, exact)
			}
		}
	}
}

// TestSimilarityEdgeCases pins the degenerate inputs: blank queries
// (zero embedding) and non-positive k answer empty; defaults resolve.
func TestSimilarityEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := randomGraph(t, rng, 100).Freeze()
	ix := BuildSimilarityIndex(s, SimilarityConfig{})
	cfg := ix.Config()
	if cfg.Dim != DefaultSimilarityDim || cfg.Tables != DefaultSimilarityTables || cfg.Bits != DefaultSimilarityBits {
		t.Fatalf("zero config resolved to %+v, want defaults", cfg)
	}
	if got := ix.Lookup("", 5); len(got) != 0 {
		t.Fatalf("blank query returned %d matches", len(got))
	}
	if got := ix.Lookup("camping", 0); len(got) != 0 {
		t.Fatalf("k=0 returned %d matches", len(got))
	}
	if got := ix.Exact("", 5); len(got) != 0 {
		t.Fatalf("blank exact query returned %d matches", len(got))
	}
	if got := BuildSimilarityIndex(New().Freeze(), SimilarityConfig{}).Lookup("camping", 5); len(got) != 0 {
		t.Fatalf("empty index returned %d matches", len(got))
	}
}

// TestSimilarityConcurrent exercises the shared index from many
// goroutines (the serving pattern) so the race detector can see the
// scratch pool discipline.
func TestSimilarityConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s := randomGraph(t, rng, 200).Freeze()
	ix := BuildSimilarityIndex(s, SimilarityConfig{Seed: 9})
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

// TestSimilarityMatchesReference holds Lookup to the map-probe Lookup it
// replaced (referenceLookup, below): equal answers, equal candidate
// sets, and signature columns equal to the serial per-table signature,
// across LSH shapes from 1×1 to 16×32 and k from 1 to past the index
// size.
func TestSimilarityMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 2; trial++ {
		s := annGraph(t, rng, 40+rng.Intn(80)).Freeze()
		queries := annQueries(s)
		for _, tables := range []int{1, 2, 16} {
			for _, nb := range []int{1, 3, 10, 32} {
				ix := BuildSimilarityIndex(s, SimilarityConfig{Tables: tables, Bits: nb, Seed: int64(trial)})
				if ix.NumIndexed() == 0 {
					t.Fatal("no intentions indexed")
				}
				CheckSimilarityReference(t, ix, queries, []int{1, 5, 10, 80, 1000})
			}
		}
	}
}

// CheckSimilarityReference checks ix against referenceLookup for every
// (query, k) pair. Exported for the scaled-graph test in package kg_test.
func CheckSimilarityReference(t testing.TB, ix *SimilarityIndex, queries []string, ks []int) {
	t.Helper()
	ref := newRefIndex(ix)
	n, dim := len(ix.nodes), ix.cfg.Dim
	for p := 0; p < n; p++ {
		for tb := 0; tb < ix.cfg.Tables; tb++ {
			if got, want := ix.sigs[tb*n+p], ref.signature(tb, ix.vecs[p*dim:(p+1)*dim]); got != want {
				t.Fatalf("%+v: signature column %d position %d = %#x, serial signature %#x", ix.cfg, tb, p, got, want)
			}
		}
	}
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
			want, wantCand := referenceLookup(ref, q, k)
			if got := ix.Lookup(q, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("%+v: Lookup(%q, %d) = %+v, reference %+v", ix.cfg, q, k, got, want)
			}
			if qvec := ix.model.Embed(q); k > 0 && !isZero(qvec) {
				sc := ix.scratch.Get().(*simScratch)
				ix.gather(qvec, k, sc)
				got := slices.Clone(sc.cand)
				sc.cand = sc.cand[:0]
				ix.scratch.Put(sc)
				slices.Sort(wantCand)
				if !slices.Equal(got, wantCand) {
					t.Fatalf("%+v: Lookup(%q, %d) gathers %d candidates, reference %d", ix.cfg, q, k, len(got), len(wantCand))
				}
			}
		}
	}
}

// FuzzSimilarityLookup checks Lookup against referenceLookup for
// arbitrary (query, k) on a default-shaped and a narrow index.
func FuzzSimilarityLookup(f *testing.F) {
	s := annGraph(f, rand.New(rand.NewSource(1)), 150).Freeze()
	indexes := []*SimilarityIndex{
		BuildSimilarityIndex(s, SimilarityConfig{Seed: 1}),
		BuildSimilarityIndex(s, SimilarityConfig{Tables: 2, Bits: 3, Seed: 2}),
	}
	refs := []*refIndex{newRefIndex(indexes[0]), newRefIndex(indexes[1])}
	for i, q := range annQueries(s) {
		f.Add(q, []int{1, 5, 10, 80, 1000, 0, -1}[i%7])
	}
	f.Fuzz(func(t *testing.T, q string, k int) {
		for i, ix := range indexes {
			want, _ := referenceLookup(refs[i], q, k)
			if got := ix.Lookup(q, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("%+v: Lookup(%q, %d) = %+v, reference %+v", ix.cfg, q, k, got, want)
			}
		}
	})
}

// TestSimilarityDimBelowModelMinimum: the embedding model raises a
// dimension under 8 to 8, and the index lays out its planes and vectors
// in the dimension the model embeds in and reports it.
func TestSimilarityDimBelowModelMinimum(t *testing.T) {
	s := annGraph(t, rand.New(rand.NewSource(4)), 60).Freeze()
	for _, dim := range []int{1, 4, 7} {
		ix := BuildSimilarityIndex(s, SimilarityConfig{Dim: dim})
		if got := ix.Config().Dim; got != 8 {
			t.Fatalf("Dim %d resolved to %d, want the model's 8", dim, got)
		}
		if got := ix.Lookup("camping", 5); len(got) == 0 {
			t.Fatalf("Dim %d: Lookup found nothing", dim)
		}
		CheckSimilarityReference(t, ix, []string{"camping", "winter hiking"}, []int{1, 10})
	}
}

// TestSimilarityLookupAllocBudget pins a lookup's allocations: the
// query's embedding (its vector and the tokenizer's slices) and the
// returned matches. Signatures, ring distances, candidates and the heap
// live on pooled scratch.
func TestSimilarityLookupAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; the alloc guard runs in the regular suite")
	}
	s := annGraph(t, rand.New(rand.NewSource(5)), 200).Freeze()
	ix := BuildSimilarityIndex(s, SimilarityConfig{Seed: 1})
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

// refIndex is the map-probe index Lookup replaced, its bucket maps
// rebuilt from the flat signature columns; referenceLookup is that
// Lookup verbatim.
type refIndex struct {
	*SimilarityIndex
	tables []map[uint32][]int32
}

type refScratch struct {
	sigs    []uint32
	cand    []int32
	mark    []bool
	matches []SimilarMatch
}

func newRefIndex(ix *SimilarityIndex) *refIndex {
	r := &refIndex{SimilarityIndex: ix, tables: make([]map[uint32][]int32, ix.cfg.Tables)}
	n := len(ix.nodes)
	for t := range r.tables {
		r.tables[t] = map[uint32][]int32{}
		for p := 0; p < n; p++ {
			sig := ix.sigs[t*n+p]
			r.tables[t][sig] = append(r.tables[t][sig], sym32(p))
		}
	}
	return r
}

// signature projects vec onto table t's hyperplanes and packs the signs.
func (ix *refIndex) signature(t int, vec []float64) uint32 {
	var sig uint32
	base := t * ix.cfg.Bits * ix.cfg.Dim
	for b := 0; b < ix.cfg.Bits; b++ {
		plane := ix.planes[base+b*ix.cfg.Dim : base+(b+1)*ix.cfg.Dim]
		dot := 0.0
		for i, x := range vec {
			dot += plane[i] * x
		}
		if dot >= 0 {
			sig |= 1 << b
		}
	}
	return sig
}

// probe appends table t's bucket for sig to the candidate set,
// deduplicating across tables and probes.
func (ix *refIndex) probe(t int, sig uint32, sc *refScratch) {
	for _, p := range ix.tables[t][sig] {
		if sc.mark[p] {
			continue
		}
		sc.mark[p] = true
		sc.cand = append(sc.cand, p)
	}
}

// referenceLookup is the map-probe Lookup, returning the gathered
// candidates beside the answer.
func referenceLookup(ix *refIndex, q string, k int) ([]SimilarMatch, []int32) {
	qvec := ix.model.Embed(q)
	zero := true
	for _, x := range qvec {
		if x != 0 {
			zero = false
			break
		}
	}
	if zero || k <= 0 {
		return emptySimilar, nil
	}

	sc := &refScratch{}
	if len(sc.mark) < len(ix.nodes) {
		sc.mark = make([]bool, len(ix.nodes))
	}
	if len(sc.sigs) < ix.cfg.Tables {
		sc.sigs = make([]uint32, ix.cfg.Tables)
	}
	for t := 0; t < ix.cfg.Tables; t++ {
		sc.sigs[t] = ix.signature(t, qvec)
	}

	floor := 8 * k
	if floor < similarityCandidateFloor {
		floor = similarityCandidateFloor
	}
	// Width 0: exact signatures.
	for t := 0; t < ix.cfg.Tables; t++ {
		ix.probe(t, sc.sigs[t], sc)
	}
	// Width 1: single-bit flips.
	if len(sc.cand) < floor {
		for t := 0; t < ix.cfg.Tables; t++ {
			for b := 0; b < ix.cfg.Bits; b++ {
				ix.probe(t, sc.sigs[t]^(1<<b), sc)
			}
		}
	}
	// Width 2: double-bit flips.
	if len(sc.cand) < floor {
		for t := 0; t < ix.cfg.Tables; t++ {
			for b1 := 0; b1 < ix.cfg.Bits; b1++ {
				for b2 := b1 + 1; b2 < ix.cfg.Bits; b2++ {
					ix.probe(t, sc.sigs[t]^(1<<b1)^(1<<b2), sc)
				}
			}
		}
	}
	// Probe exhaustion below the floor: scan the remainder.
	if len(sc.cand) < floor && len(sc.cand) < len(ix.nodes) {
		for p := range ix.nodes {
			if !sc.mark[p] {
				sc.mark[p] = true
				sc.cand = append(sc.cand, sym32(p))
			}
		}
	}

	sc.matches = sc.matches[:0]
	for _, p := range sc.cand {
		sc.matches = append(sc.matches, ix.match(p, qvec))
	}
	return topKMatches(sc.matches, k), sc.cand
}

// match rescores index position p against the query vector.
func (ix *refIndex) match(p int32, qvec []float64) SimilarMatch {
	vec := ix.vecs[int(p)*ix.cfg.Dim : (int(p)+1)*ix.cfg.Dim]
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
