package embedding

import (
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"

	"cosmo/internal/fnv1a"
	"cosmo/internal/textproc"
)

// refHash is the original allocation-heavy feature hash the inlined
// FNV-1a path must reproduce byte for byte.
func refHash(dim int, f string) (int, float64) {
	h := fnv.New64a()
	h.Write([]byte(f)) //cosmo:lint-ignore dropped-error hash.Hash Write never returns an error (hash package contract)
	v := h.Sum64()
	idx := int(v % uint64(dim))
	sign := 1.0
	if (v>>32)&1 == 1 {
		sign = -1.0
	}
	return idx, sign
}

// refEmbed is the original Embed implementation, kept as the
// compatibility oracle: the fast path must not shift any embedding, or
// calibrated downstream thresholds (the Eq. 1 similarity filter) move.
func refEmbed(m *Model, s string) []float64 {
	vec := make([]float64, m.dim)
	toks := stemAll(textproc.Tokenize(s))
	for i, t := range toks {
		idx, sign := refHash(m.dim, "w:"+t)
		vec[idx] += sign * 1.0
		if i+1 < len(toks) {
			idx, sign = refHash(m.dim, "b:"+t+"_"+toks[i+1])
			vec[idx] += sign * 0.5
		}
		padded := "^" + t + "$"
		for j := 0; j+3 <= len(padded); j++ {
			idx, sign = refHash(m.dim, "c:"+padded[j:j+3])
			vec[idx] += sign * 0.25
		}
	}
	normalize(vec)
	return vec
}

func TestHashCompat(t *testing.T) {
	m := New(256)
	inputs := []string{
		"camping air mattress for two people",
		"used for walking the dog",
		"a", "ab", "abc",
		"the quick brown fox jumps over the lazy dog",
		"wireless noise cancelling headphones",
		"",
		"    spaced    out    tokens   ",
	}
	for _, in := range inputs {
		got := m.Embed(in)
		want := refEmbed(m, in)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Embed(%q)[%d] = %v, want %v (fast FNV path diverged)", in, i, got[i], want[i])
			}
		}
	}
}

// stemAll stems every token.
func stemAll(tokens []string) []string {
	out := make([]string, len(tokens))
	for i, t := range tokens {
		out[i] = textproc.Stem(t)
	}
	return out
}

// embedIntoStemAll is embedInto as it was before it stemmed inline: the
// whole token list stemmed up front by stemAll.
func embedIntoStemAll(m *Model, vec []float64, tokens []string) {
	toks := stemAll(tokens)
	for i, t := range toks {
		idx, sign := m.slot(fnv1a.String64(wordPrefix, t))
		vec[idx] += sign * 1.0
		if i+1 < len(toks) {
			idx, sign = m.slot(fnv1a.String64(fnv1a.Byte64(fnv1a.String64(bigramPrefix, t), '_'), toks[i+1]))
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

// TestInlineStemMatchesStemAll: stemming each token as embedInto reaches
// it gives vectors bit for bit equal to stemming the list up front, over
// words that hit every suffix rule of textproc.Stem, in random order.
func TestInlineStemMatchesStemAll(t *testing.T) {
	words := []string{
		"creations", "creation", "happinesses", "statements", "trainings",
		"hiking", "berries", "carried", "repeatedly", "neededs", "camped",
		"boxes", "tents", "dog's", "dogs'", "a", "ox", "ring", "lamp", "é",
		"Walking", "CAMPING", "co-buy", "2-person",
	}
	rng := rand.New(rand.NewSource(7))
	for _, dim := range []int{8, 128, 256} {
		m := New(dim)
		for n := 0; n < 2000; n++ {
			toks := make([]string, rng.Intn(9))
			for i := range toks {
				toks[i] = words[rng.Intn(len(words))]
			}
			toks = textproc.Tokenize(strings.Join(toks, " "))
			got, want := make([]float64, dim), make([]float64, dim)
			m.embedInto(got, toks)
			embedIntoStemAll(m, want, toks)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("dim %d, tokens %q: [%d] = %v, StemAll version %v", dim, toks, i, got[i], want[i])
				}
			}
		}
	}
}

func TestSimilarityMatchesCosine(t *testing.T) {
	m := New(128)
	pairs := [][2]string{
		{"camping air mattress", "air mattress for camping"},
		{"used for walking the dog", "wireless headphones"},
		{"", "anything"},
		{"same text", "same text"},
	}
	for _, p := range pairs {
		fast := m.Similarity(p[0], p[1])
		ref := Cosine(m.Embed(p[0]), m.Embed(p[1]))
		if math.Abs(fast-ref) > 1e-12 {
			t.Errorf("Similarity(%q, %q) = %v, Cosine = %v", p[0], p[1], fast, ref)
		}
	}
}

// BenchmarkEmbedVsReference demonstrates the allocs/op drop from
// inlining FNV-1a (no hash.Hash64 allocation, no feature-string
// concatenation); compare the fast and reference sub-benchmarks.
func BenchmarkEmbedVsReference(b *testing.B) {
	m := New(256)
	const s = "inflatable camping air mattress with built in pump for two people"
	b.Run("fast", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.Embed(s)
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			refEmbed(m, s)
		}
	})
}

func BenchmarkSimilarity(b *testing.B) {
	m := New(256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Similarity("camping air mattress for two", "air mattress used for camping trips")
	}
}

// TestContextReuseMatchesSimilarity: one Context scoring a run of texts,
// its context embedded once from a vocabulary's IDs, gives every text
// the answer of Similarity's string path bit for bit, before and after a
// Release.
func TestContextReuseMatchesSimilarity(t *testing.T) {
	m := New(128)
	const context = "Acme Camping Air Mattress and Trail Tent"
	texts := []string{"used for camping trips", "", "air mattress for camping", "capable of holding snacks"}
	v := textproc.NewVocab()
	v.Add(context)
	v.Add(texts...)
	ctx := m.Context(v, v.Tokens(context))
	for round := 0; round < 2; round++ {
		for _, s := range texts {
			got, want := ctx.Similarity(v.Tokens(s)), m.Similarity(s, context)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("round %d, %q: Context gives %v, Similarity %v", round, s, got, want)
			}
		}
		ctx.Release()
	}
}

// TestEmbedTokensMatchesEmbedInto: embedding a text from a vocabulary's
// stems gives embedInto's vector bit for bit, over words that hit every
// suffix rule of textproc.Stem, share stems and repeat, in random order,
// with the vocabulary shared by every text.
func TestEmbedTokensMatchesEmbedInto(t *testing.T) {
	words := []string{
		"creations", "creation", "happinesses", "statements", "trainings",
		"hiking", "hikes", "berries", "carried", "repeatedly", "camped",
		"boxes", "tents", "dog's", "dogs'", "a", "ox", "the", "lamp", "é",
		"Walking", "CAMPING", "co-buy", "2-person", "İstanbul",
	}
	rng := rand.New(rand.NewSource(11))
	v := textproc.NewVocab()
	for _, dim := range []int{8, 128, 256} {
		m := New(dim)
		for n := 0; n < 2000; n++ {
			toks := make([]string, rng.Intn(9))
			for i := range toks {
				toks[i] = words[rng.Intn(len(words))]
			}
			s := strings.Join(toks, " ")
			v.Add(s)
			got, want := make([]float64, dim), make([]float64, dim)
			m.embedTokens(got, v, v.Tokens(s))
			m.embedInto(want, textproc.Tokenize(s))
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("dim %d, %q: [%d] = %v, embedInto %v", dim, s, i, got[i], want[i])
				}
			}
		}
	}
}
