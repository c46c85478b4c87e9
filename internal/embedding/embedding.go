// Package embedding provides the text-embedding substrate that stands in
// for the paper's in-house e-commerce language model embeddings. It maps
// strings to dense vectors by feature-hashing word unigrams, word bigrams
// and character trigrams, then L2-normalizing. Paraphrases of the same
// behavior context share most features and therefore score high cosine
// similarity — exactly the property the paper's similarity filter
// (Eq. 1) relies on.
package embedding

import (
	"math"
	"sync"

	"cosmo/internal/fnv1a"
	"cosmo/internal/textproc"
)

// Model embeds strings into a fixed-dimension space.
type Model struct {
	dim int
	// pairs pools the two vectors of one Context (*[]float64 of 2·dim),
	// which never leave it.
	pairs sync.Pool
}

// New returns a model with the given embedding dimension (>= 8).
func New(dim int) *Model {
	if dim < 8 {
		dim = 8
	}
	return &Model{dim: dim}
}

// Dim returns the embedding dimension.
func (m *Model) Dim() int { return m.dim }

// Feature hashing is FNV-1a folded inline (hash/fnv semantics, verified
// by TestHashCompat): the hot path folds feature bytes into a running
// state instead of allocating a hash.Hash64 and a concatenated feature
// string per feature. The prefix states below are the hash after
// consuming "w:", "b:", "c:" — continuing from them is byte-identical to
// hashing the concatenated string.
var (
	wordPrefix   = fnv1a.String64(fnv1a.Offset64, "w:")
	bigramPrefix = fnv1a.String64(fnv1a.Offset64, "b:")
	charPrefix   = fnv1a.String64(fnv1a.Offset64, "c:")
)

// slot maps a finished feature hash to (index, sign).
func (m *Model) slot(v uint64) (int, float64) {
	idx := int(v % uint64(m.dim))
	sign := 1.0
	if (v>>32)&1 == 1 {
		sign = -1.0
	}
	return idx, sign
}

// padByte reads position p of the virtual padded token "^" + t + "$"
// without materializing it.
func padByte(t string, p int) byte {
	switch {
	case p == 0:
		return '^'
	case p == len(t)+1:
		return '$'
	default:
		return t[p-1]
	}
}

// Embed returns the L2-normalized embedding of s. The zero vector is
// returned for blank input.
func (m *Model) Embed(s string) []float64 {
	vec := make([]float64, m.dim)
	m.embedInto(vec, textproc.Tokenize(s))
	return vec
}

// embedInto writes the embedding of tokens (textproc.Tokenize of the
// string, left unmodified) into the zeroed vec. Each token is stemmed
// once, as the loop reaches it, and hashing runs inline over the stem
// bytes, so the only allocations are textproc.Stem's: a stem whose
// suffix rule appends a replacement ("ations" -> "ate") is a new string.
// The annotation below holds the rest of the hot path to that
// discipline statically.
//
//cosmo:alloc-free
func (m *Model) embedInto(vec []float64, tokens []string) {
	var next string // the stem of tokens[i+1], worked out for the bigram
	if len(tokens) > 0 {
		next = textproc.Stem(tokens[0])
	}
	for i := range tokens {
		t := next
		idx, sign := m.slot(fnv1a.String64(wordPrefix, t))
		vec[idx] += sign * 1.0
		if i+1 < len(tokens) {
			next = textproc.Stem(tokens[i+1])
			idx, sign = m.slot(fnv1a.String64(fnv1a.Byte64(fnv1a.String64(bigramPrefix, t), '_'), next))
			vec[idx] += sign * 0.5
		}
		// Character trigrams of the padded token ("^" + t + "$") for
		// robustness to morphology, hashed in place over the token bytes.
		for j := 0; j+3 <= len(t)+2; j++ {
			h := charPrefix
			h = fnv1a.Byte64(h, padByte(t, j))
			h = fnv1a.Byte64(h, padByte(t, j+1))
			h = fnv1a.Byte64(h, padByte(t, j+2))
			idx, sign = m.slot(h)
			vec[idx] += sign * 0.25
		}
	}
	normalize(vec)
}

func normalize(v []float64) {
	n := 0.0
	for _, x := range v {
		n += x * x
	}
	if n == 0 {
		return
	}
	n = math.Sqrt(n)
	for i := range v {
		v[i] /= n
	}
}

// Cosine returns the cosine similarity of two vectors (0 if either is
// the zero vector or lengths differ).
func Cosine(a, b []float64) float64 {
	if len(a) != len(b) {
		return 0
	}
	dot, na, nb := 0.0, 0.0, 0.0
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// Similarity embeds both strings and returns their cosine similarity —
// the paper's d(k, c) = cos(E(k), E(c)) from Eq. 1. Embed L2-normalizes
// (and returns the zero vector for blank input), so a plain dot product
// is the cosine and the per-vector norm recomputation is skipped.
func (m *Model) Similarity(a, b string) float64 {
	va, vb := m.Embed(a), m.Embed(b)
	dot := 0.0
	for i := range va {
		dot += va[i] * vb[i]
	}
	return dot
}

// embedTokens is embedInto for a text given as token IDs of v: the
// stems come from v, so no token is stemmed here, and the features and
// their order are embedInto's, bit for bit.
//
//cosmo:alloc-free
func (m *Model) embedTokens(vec []float64, v *textproc.Vocab, toks []int32) {
	for i, id := range toks {
		t := v.StemText(v.Stem(id))
		idx, sign := m.slot(fnv1a.String64(wordPrefix, t))
		vec[idx] += sign * 1.0
		if i+1 < len(toks) {
			next := v.StemText(v.Stem(toks[i+1]))
			idx, sign = m.slot(fnv1a.String64(fnv1a.Byte64(fnv1a.String64(bigramPrefix, t), '_'), next))
			vec[idx] += sign * 0.5
		}
		for j := 0; j+3 <= len(t)+2; j++ {
			h := charPrefix
			h = fnv1a.Byte64(h, padByte(t, j))
			h = fnv1a.Byte64(h, padByte(t, j+1))
			h = fnv1a.Byte64(h, padByte(t, j+2))
			idx, sign = m.slot(h)
			vec[idx] += sign * 0.25
		}
	}
	normalize(vec)
}

// Context scores texts against one context: Eq. 1's d(k, c) for every
// candidate k of one behavior, all given as token IDs of one vocabulary.
// The context is embedded at most once, at the first Similarity call, so
// a context no candidate reaches is never embedded. Release hands the
// two vectors back to the model's pool.
type Context struct {
	m     *Model
	v     *textproc.Vocab
	text  []int32
	pair  *[]float64 // the candidate's vector, then the context's
	ready bool       // the context's half of pair holds its embedding
}

// Context returns a scorer against the text whose token IDs in v are
// text; it holds no vectors until its first Similarity call.
func (m *Model) Context(v *textproc.Vocab, text []int32) Context {
	return Context{m: m, v: v, text: text}
}

// Similarity is m.Similarity(a, context) for the text a whose token IDs
// in the context's vocabulary are toks.
func (c *Context) Similarity(toks []int32) float64 {
	m := c.m
	if c.pair == nil {
		c.pair, _ = m.pairs.Get().(*[]float64)
		if c.pair == nil {
			buf := make([]float64, 2*m.dim)
			c.pair = &buf
		}
	}
	va, vc := (*c.pair)[:m.dim], (*c.pair)[m.dim:]
	if !c.ready {
		clear(vc)
		m.embedTokens(vc, c.v, c.text)
		c.ready = true
	}
	clear(va)
	m.embedTokens(va, c.v, toks)
	dot := 0.0
	for i := range va {
		dot += va[i] * vc[i]
	}
	return dot
}

// Release returns the context's vectors to the model; a later
// Similarity call takes a fresh pair and embeds the context again.
func (c *Context) Release() {
	if c.pair != nil {
		c.m.pairs.Put(c.pair)
		c.pair, c.ready = nil, false
	}
}
