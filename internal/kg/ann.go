package kg

import (
	"sync"

	"cosmo/internal/embedding"
)

// This file implements the /similar retrieval layer over the snapshot's
// intention space: an exact cosine scan over the hashed n-gram
// embeddings of intention labels. The embeddings are computed once per
// snapshot (at load/refresh time) into one flat L2-normalized column and
// swapped RCU-style alongside it — like the Snapshot, a built
// SimilarityIndex is immutable and is shared freely across goroutines
// with no locking. A lookup scores every position, four vectors per
// pass over the query, into a bounded heap, so its answer is the true
// top-k.

// DefaultSimilarityDim is the embedding dimension the index embeds in.
const DefaultSimilarityDim = 64

// SimilarityConfig is kept only for bench/, which passes one to
// BuildSimilarityIndex; Seed is ignored.
type SimilarityConfig struct{ Seed int64 }

// SimilarMatch is one retrieved intention with its exact cosine score
// against the query.
type SimilarMatch struct {
	ID    string
	Label string
	Score float64
}

// SimilarityIndex is the immutable embedding column over a snapshot's
// intentions. Build once, share freely; pair it with its snapshot behind
// the same atomic swap.
type SimilarityIndex struct {
	snap  *Snapshot
	model *embedding.Model

	// nodes[p] is the intention symbol at index position p, ascending;
	// vecs holds the matching L2-normalized embeddings, flattened.
	nodes []int32
	vecs  []float64

	// heaps pools the per-lookup top-k heap (*topK).
	heaps sync.Pool
}

// NewSimilarityIndex embeds every intention label in the snapshot and
// indexes the non-zero embeddings. Deterministic for equal snapshots.
func NewSimilarityIndex(s *Snapshot) *SimilarityIndex {
	ix := &SimilarityIndex{snap: s, model: embedding.New(DefaultSimilarityDim)}
	ix.heaps.New = func() any { return new(topK) }
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
	return ix
}

// BuildSimilarityIndex is NewSimilarityIndex, kept only for bench/
// (see serving.Deployment.SetKG).
func BuildSimilarityIndex(s *Snapshot, _ SimilarityConfig) *SimilarityIndex {
	return NewSimilarityIndex(s)
}

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

// Lookup returns up to k intentions most similar to q by exact cosine,
// score descending and ID ascending on ties, as an owned slice. Blank
// queries (zero embedding) and k <= 0 answer empty.
func (ix *SimilarityIndex) Lookup(q string, k int) []SimilarMatch {
	if k <= 0 {
		return emptySimilar
	}
	qvec := ix.model.Embed(q)
	if isZero(qvec) {
		return emptySimilar
	}
	hp := ix.heaps.Get().(*topK)
	out := ix.rank(qvec, k, hp)
	ix.heaps.Put(hp)
	return out
}

// rank scores every position, four vectors at a time, keeps the best k
// in the bounded heap *hp and returns them best first.
func (ix *SimilarityIndex) rank(qvec []float64, k int, hp *topK) []SimilarMatch {
	dim := len(qvec)
	vec := func(p int) []float64 { return ix.vecs[p*dim:] }
	h, n := (*hp)[:0], len(ix.nodes)
	p := 0
	for ; p+4 <= n; p += 4 {
		d0, d1, d2, d3 := dot4(qvec, vec(p), vec(p+1), vec(p+2), vec(p+3))
		h = h.offer(k, scored{d0, p})
		h = h.offer(k, scored{d1, p + 1})
		h = h.offer(k, scored{d2, p + 2})
		h = h.offer(k, scored{d3, p + 3})
	}
	for ; p < n; p++ {
		h = h.offer(k, scored{dot(qvec, vec(p)), p})
	}
	out := make([]SimilarMatch, len(h))
	for i := len(out) - 1; i >= 0; i-- {
		var last scored
		h, last = h.pop()
		sym := ix.nodes[last.p]
		out[i] = SimilarMatch{ID: ix.snap.ids[sym], Label: ix.snap.labels[sym], Score: last.score}
	}
	*hp = h
	return out
}
