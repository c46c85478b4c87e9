package kg

import (
	"math/bits"
	"math/rand"
	"sync"

	"cosmo/internal/embedding"
)

// This file implements the approximate-nearest-neighbor retrieval layer
// over the snapshot's intention space: a bit-sampled LSH (SimHash)
// index on the hashed n-gram embeddings of intention labels. The
// salience-ranking and similarity-filter paths need "intentions like
// this text" lookups; before this index that was a linear scan over
// every intention embedding per query. The index is built once per
// snapshot (at load/refresh time) and swapped RCU-style alongside it —
// like the Snapshot, a built SimilarityIndex is immutable and is shared
// freely across goroutines with no locking.
//
// Scheme: each of Tables hash tables projects an embedding onto Bits
// seeded random hyperplanes; the sign pattern is the signature. Nearby
// vectors agree on most signs, so their signatures are within a small
// Hamming distance in some table with high probability. Lookup gathers
// the positions within the smallest Hamming ring (0, 1 or 2 bits) that
// holds the candidate floor — what multiprobing each table's buckets at
// 1-bit and 2-bit flips would gather, found by one popcount pass over
// flat signature columns — then rescores candidates exactly by cosine,
// so returned scores are identical to the exact scan's; only the
// candidate set is approximate.

// Default LSH shape: chosen so that on harness-scale graphs the 1-bit
// ring across 16 tables reaches the candidate floor for clustered
// queries while the 2-bit ring keeps recall@k >= 0.9 even for queries
// whose true neighbors are only weakly similar.
const (
	DefaultSimilarityDim    = 64
	DefaultSimilarityTables = 16
	DefaultSimilarityBits   = 10
)

// similarityCandidateFloor is the minimum candidate count Lookup tries
// to gather (scaled by k) before it stops widening rings.
const similarityCandidateFloor = 64

// SimilarityConfig shapes a SimilarityIndex. The zero value gets the
// defaults above; Seed fixes the hyperplane sample, so equal
// (snapshot, config) pairs build identical indexes.
type SimilarityConfig struct {
	Dim    int   // embedding dimension
	Tables int   // number of hash tables
	Bits   int   // hyperplanes (signature bits) per table, max 32
	Seed   int64 // hyperplane sample seed
}

func (c SimilarityConfig) withDefaults() SimilarityConfig {
	if c.Dim <= 0 {
		c.Dim = DefaultSimilarityDim
	}
	if c.Tables <= 0 {
		c.Tables = DefaultSimilarityTables
	}
	if c.Bits <= 0 {
		c.Bits = DefaultSimilarityBits
	}
	if c.Bits > 32 {
		c.Bits = 32
	}
	return c
}

// SimilarMatch is one retrieved intention with its exact cosine score
// against the query.
type SimilarMatch struct {
	ID    string
	Label string
	Score float64
}

// SimilarityIndex is the immutable LSH index over a snapshot's
// intention embeddings. Build once, share freely; pair it with its
// snapshot behind the same atomic swap.
type SimilarityIndex struct {
	snap  *Snapshot
	model *embedding.Model
	cfg   SimilarityConfig

	// planes holds Tables*Bits hyperplanes of Dim floats, flattened.
	planes []float64
	// nodes[p] is the intention symbol at index position p, ascending;
	// vecs holds the matching L2-normalized embeddings, flattened.
	nodes []int32
	vecs  []float64
	// sigs holds each table's signatures as one column:
	// sigs[t*len(nodes)+p] is position p's signature in table t.
	sigs []uint32

	scratch sync.Pool
}

// simScratch pools the per-lookup accumulators: the per-table query
// signatures, each position's ring distance, the gathered candidate
// positions and the top-k heap.
type simScratch struct {
	qsigs []uint32
	dist  []int
	cand  []int32
	heap  simHeap
}

// similarityRings is the number of probe rings (Hamming widths 0, 1 and
// 2) Lookup widens through before it takes every position; a ring
// distance of similarityRings stands for "beyond the last ring".
const similarityRings = 3

// BuildSimilarityIndex embeds every intention label in the snapshot and
// indexes the non-zero embeddings under cfg's LSH shape. Deterministic
// for equal (snapshot, config).
func BuildSimilarityIndex(s *Snapshot, cfg SimilarityConfig) *SimilarityIndex {
	cfg = cfg.withDefaults()
	ix := &SimilarityIndex{snap: s, model: embedding.New(cfg.Dim)}
	// The model raises a small dimension to its minimum; every layout
	// below follows the dimension it actually embeds in.
	cfg.Dim = ix.model.Dim()
	ix.cfg = cfg

	rng := rand.New(rand.NewSource(cfg.Seed))
	ix.planes = make([]float64, cfg.Tables*cfg.Bits*cfg.Dim)
	for i := range ix.planes {
		ix.planes[i] = rng.NormFloat64()
	}

	for i := range s.ntypes {
		if s.nodeType(sym32(i)) != NodeIntention {
			continue
		}
		vec := ix.model.Embed(s.labels[i])
		if isZero(vec) {
			// Blank labels embed to the zero vector; it is equidistant
			// from everything, so indexing it would only add noise.
			continue
		}
		ix.nodes = append(ix.nodes, sym32(i))
		ix.vecs = append(ix.vecs, vec...)
	}

	n := len(ix.nodes)
	ix.sigs = make([]uint32, cfg.Tables*n)
	sig := make([]uint32, cfg.Tables)
	for p := 0; p < n; p++ {
		ix.signatures(ix.vecs[p*cfg.Dim:(p+1)*cfg.Dim], sig)
		for t, v := range sig {
			ix.sigs[t*n+p] = v
		}
	}

	ix.scratch.New = func() any {
		return &simScratch{
			qsigs: make([]uint32, cfg.Tables),
			dist:  make([]int, n),
			cand:  make([]int32, 0, n),
		}
	}
	return ix
}

// Config returns the resolved configuration: defaults filled in, and
// Dim the dimension the index embeds in.
func (ix *SimilarityIndex) Config() SimilarityConfig { return ix.cfg }

// NumIndexed returns how many intentions the index holds.
func (ix *SimilarityIndex) NumIndexed() int { return len(ix.nodes) }

func isZero(vec []float64) bool {
	for _, x := range vec {
		if x != 0 {
			return false
		}
	}
	return true
}

// signatures projects vec onto every table's hyperplanes, four planes
// at a time, and packs the signs: bit b of sigs[t] is set when plane b
// of table t has a non-negative dot product with vec.
func (ix *SimilarityIndex) signatures(vec []float64, sigs []uint32) {
	clear(sigs)
	dim, nb := ix.cfg.Dim, ix.cfg.Bits
	set := func(j int, dot float64) {
		if dot >= 0 {
			sigs[j/nb] |= 1 << (j % nb)
		}
	}
	plane := func(j int) []float64 { return ix.planes[j*dim : (j+1)*dim] }
	j, planes := 0, len(sigs)*nb
	for ; j+4 <= planes; j += 4 {
		d0, d1, d2, d3 := dot4(vec, plane(j), plane(j+1), plane(j+2), plane(j+3))
		set(j, d0)
		set(j+1, d1)
		set(j+2, d2)
		set(j+3, d3)
	}
	for ; j < planes; j++ {
		set(j, dot(vec, plane(j)))
	}
}

// dot returns the dot product of q with the first len(q) floats of a,
// summed in index order.
func dot(q, a []float64) float64 {
	a = a[:len(q)]
	s := 0.0
	for i, x := range q {
		s += a[i] * x
	}
	return s
}

// dot4 is dot for four vectors in one pass over q. Each product keeps
// its own accumulator, summed in index order, so every result is
// bit-identical to dot's.
func dot4(q, a, b, c, d []float64) (s0, s1, s2, s3 float64) {
	a, b, c, d = a[:len(q)], b[:len(q)], c[:len(q)], d[:len(q)]
	for i, x := range q {
		s0 += a[i] * x
		s1 += b[i] * x
		s2 += c[i] * x
		s3 += d[i] * x
	}
	return s0, s1, s2, s3
}

// emptySimilar is the canonical empty result for blank queries.
var emptySimilar = []SimilarMatch{}

// Lookup returns up to k intentions most similar to q, gathered through
// the LSH signatures and rescored by exact cosine (score descending, ID
// ascending on ties — the same order as Exact, so equal candidate sets
// produce byte-equal results). The candidates are the positions within
// Hamming distance w of the query's signature in some table, for the
// smallest ring w in {0, 1, 2} that holds the candidate floor (max(8k,
// 64) positions), or every position when no ring does: probing each
// table's bucket at the exact signature and then at every 1-bit and
// 2-bit flip gathers the same set, and a small index never trades
// recall for nothing.
func (ix *SimilarityIndex) Lookup(q string, k int) []SimilarMatch {
	return ix.search(q, k, true)
}

// Exact returns up to k intentions most similar to q by rescoring every
// indexed embedding — the recall baseline and the path the index makes
// obsolete on the hot path.
func (ix *SimilarityIndex) Exact(q string, k int) []SimilarMatch {
	return ix.search(q, k, false)
}

// search embeds q, gathers candidates (through the rings when lsh is
// set, every position otherwise) and ranks them.
func (ix *SimilarityIndex) search(q string, k int, lsh bool) []SimilarMatch {
	if k <= 0 {
		return emptySimilar
	}
	qvec := ix.model.Embed(q)
	if isZero(qvec) {
		return emptySimilar
	}
	sc := ix.scratch.Get().(*simScratch)
	if lsh {
		ix.gather(qvec, k, sc)
	} else {
		for p := range ix.nodes {
			sc.cand = append(sc.cand, sym32(p))
		}
	}
	out := ix.rank(qvec, k, sc)
	sc.cand = sc.cand[:0]
	ix.scratch.Put(sc)
	return out
}

// gather appends Lookup's candidate positions to sc.cand, at Tables
// popcounts per position: d(p) = min over tables of the Hamming distance
// between the query's and p's signatures, capped at similarityRings,
// and the ring cut read off the per-distance counts.
func (ix *SimilarityIndex) gather(qvec []float64, k int, sc *simScratch) {
	n := len(ix.nodes)
	ix.signatures(qvec, sc.qsigs)
	dist := sc.dist[:n]
	for p := range dist {
		dist[p] = similarityRings
	}
	// Table-major: each pass reads one column front to back. Reslicing
	// the column to len(dist) drops the bounds check on dist[p].
	for t, qs := range sc.qsigs {
		col := ix.sigs[t*n : (t+1)*n]
		col = col[:len(dist)]
		for p, s := range col {
			dist[p] = min(dist[p], bits.OnesCount32(qs^s))
		}
	}
	var count [similarityRings + 1]int
	for _, d := range dist {
		count[d]++
	}
	floor := 8 * k
	if floor < similarityCandidateFloor {
		floor = similarityCandidateFloor
	}
	// Widen while the rings so far hold fewer than floor positions;
	// w == similarityRings takes every position.
	w := 0
	for have := count[0]; have < floor && w < similarityRings; have += count[w] {
		w++
	}
	for p, d := range dist {
		if d <= w {
			sc.cand = append(sc.cand, sym32(p))
		}
	}
}

// rank rescores sc.cand by exact cosine, four vectors at a time, keeps
// the best k in a bounded heap and returns them best first as an owned
// slice.
func (ix *SimilarityIndex) rank(qvec []float64, k int, sc *simScratch) []SimilarMatch {
	dim := ix.cfg.Dim
	vec := func(p int32) []float64 { return ix.vecs[int(p)*dim:] }
	h, c := sc.heap[:0], sc.cand
	i := 0
	for ; i+4 <= len(c); i += 4 {
		d0, d1, d2, d3 := dot4(qvec, vec(c[i]), vec(c[i+1]), vec(c[i+2]), vec(c[i+3]))
		h = h.offer(k, simCand{d0, c[i]})
		h = h.offer(k, simCand{d1, c[i+1]})
		h = h.offer(k, simCand{d2, c[i+2]})
		h = h.offer(k, simCand{d3, c[i+3]})
	}
	for ; i < len(c); i++ {
		h = h.offer(k, simCand{dot(qvec, vec(c[i])), c[i]})
	}
	out := make([]SimilarMatch, len(h))
	for i := len(out) - 1; i >= 0; i-- {
		var last simCand
		h, last = h.pop()
		sym := ix.nodes[last.p]
		out[i] = SimilarMatch{ID: ix.snap.ids[sym], Label: ix.snap.labels[sym], Score: last.score}
	}
	sc.heap = h
	return out
}

// simCand is one rescored candidate: its cosine and index position.
type simCand struct {
	score float64
	p     int32
}

// after reports whether a ranks after b: lower score, or an equal score
// and a later position. nodes holds ascending symbols and symbols follow
// ID order, so position order is ID order. Positions are distinct, so
// the order is total.
func (a simCand) after(b simCand) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	return a.p > b.p
}

// simHeap holds the best candidates seen so far with the one that ranks
// last at the root, so a newcomer is compared against one entry.
type simHeap []simCand

// offer adds c if fewer than k are kept or c ranks before the root.
func (h simHeap) offer(k int, c simCand) simHeap {
	if len(h) < k {
		h = append(h, c)
		for i := len(h) - 1; i > 0; {
			up := (i - 1) / 2
			if !h[i].after(h[up]) {
				break
			}
			h[i], h[up] = h[up], h[i]
			i = up
		}
		return h
	}
	if h[0].after(c) {
		h[0] = c
		h.down(0)
	}
	return h
}

// pop removes and returns the candidate that ranks last.
func (h simHeap) pop() (simHeap, simCand) {
	last := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	h.down(0)
	return h, last
}

// down sifts h[i] toward the leaves until it ranks after neither child.
func (h simHeap) down(i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		c := l
		if r := l + 1; r < len(h) && h[r].after(h[l]) {
			c = r
		}
		if !h[c].after(h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// RecallAt measures Lookup's recall against Exact: the mean over
// queries of |ANN ∩ exact| / |exact| at depth k (queries with no exact
// matches are skipped). The experiments harness reports this for the
// scaled graphs; acceptance is >= 0.9.
func (ix *SimilarityIndex) RecallAt(queries []string, k int) float64 {
	sum, n := 0.0, 0
	for _, q := range queries {
		exact := ix.Exact(q, k)
		if len(exact) == 0 {
			continue
		}
		ann := ix.Lookup(q, k)
		inAnn := make(map[string]bool, len(ann))
		for _, m := range ann {
			inAnn[m.ID] = true
		}
		hit := 0
		for _, m := range exact {
			if inAnn[m.ID] {
				hit++
			}
		}
		sum += float64(hit) / float64(len(exact))
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
