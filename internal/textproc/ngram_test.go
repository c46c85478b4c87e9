package textproc

import (
	"fmt"
	"math"
	"testing"
)

var trainingSentences = []string{
	"used for walking the dog",
	"used for walking in the park",
	"capable of holding snacks",
	"capable of providing protection for the camera",
	"used for peeling potatoes",
	"used to build a fence",
	"used for biking on trails",
	"capable of keeping the feet dry",
	"used for sharpening scissors",
	"used to protect the headset",
	"used for stamping on fabric",
	"capable of hydrating the skin",
	"used for writing down important information",
	"used to make potato chips",
	"capable of tracking calories burned",
	"used for wedding party",
	"capable of flying in the air",
	"used for the dog to play",
}

// trainedLM returns a model trained on trainingSentences and the
// vocabulary that numbers its tokens.
func trainedLM() (*NgramLM, *Vocab) {
	m, v := NewNgramLM(), NewVocab()
	for _, s := range trainingSentences {
		v.Add(s)
		m.Train(v.Tokens(s))
	}
	return m, v
}

// ids returns the token IDs of s in v, adding s first.
func ids(v *Vocab, s string) []int32 {
	v.Add(s)
	return v.Tokens(s)
}

func TestPerplexityOrdersWellFormedFirst(t *testing.T) {
	m, v := trainedLM()
	good := m.Perplexity(ids(v, "used for walking the dog"))
	garbled := m.Perplexity(ids(v, "dog the walking for used"))
	if good >= garbled {
		t.Errorf("good=%v should beat garbled=%v", good, garbled)
	}
	oov := m.Perplexity(ids(v, "zzyzx qwrk flrm"))
	if good >= oov {
		t.Errorf("good=%v should beat OOV=%v", good, oov)
	}
}

func TestPerplexityPenalizesTruncation(t *testing.T) {
	m, v := trainedLM()
	full := m.Perplexity(ids(v, "capable of providing protection for the camera"))
	trunc := m.Perplexity(ids(v, "capable of providing protection for the"))
	if full >= trunc {
		t.Errorf("full=%v should beat truncated=%v", full, trunc)
	}
}

func TestPerplexityEmptyIsInf(t *testing.T) {
	m, v := trainedLM()
	if p := m.Perplexity(ids(v, "")); !math.IsInf(p, 1) {
		t.Errorf("empty perplexity = %v, want +Inf", p)
	}
}

func TestPerplexityPositive(t *testing.T) {
	m, v := trainedLM()
	for _, s := range trainingSentences {
		if p := m.Perplexity(v.Tokens(s)); p <= 0 || math.IsNaN(p) {
			t.Errorf("Perplexity(%q) = %v", s, p)
		}
	}
}

func TestLogProbMonotoneInLength(t *testing.T) {
	m, v := trainedLM()
	// Adding tokens can only decrease total log-prob (probs < 1... scores <= 1).
	short := m.LogProb(ids(v, "used for walking"))
	long := m.LogProb(ids(v, "used for walking the dog in the park every day"))
	if long > short {
		t.Errorf("longer sequence should not have higher logprob: %v > %v", long, short)
	}
}

func TestVocabSize(t *testing.T) {
	m, v := NewNgramLM(), NewVocab()
	m.Train(ids(v, "a b c"))
	m.Train(ids(v, "a b d"))
	// vocab: a b c d </s>
	if got := m.VocabSize(); got != 5 {
		t.Errorf("vocab = %d, want 5", got)
	}
}

func TestEntropy(t *testing.T) {
	if h := Entropy([]int{1, 1}); math.Abs(h-1.0) > 1e-12 {
		t.Errorf("uniform-2 entropy = %v, want 1", h)
	}
	if h := Entropy([]int{4}); h != 0 {
		t.Errorf("point mass entropy = %v, want 0", h)
	}
	if h := Entropy(nil); h != 0 {
		t.Errorf("empty entropy = %v, want 0", h)
	}
	if h := Entropy([]int{1, 1, 1, 1}); math.Abs(h-2.0) > 1e-12 {
		t.Errorf("uniform-4 entropy = %v, want 2", h)
	}
}

func TestCooccurrenceGenericDetection(t *testing.T) {
	s := NewCooccurrenceStats[string]()
	// Generic knowledge appears with many distinct contexts.
	for _, ctx := range []string{"p1", "p2", "p3", "p4", "p5", "p6", "p7", "p8"} {
		s.Observe("used for the same reason", ctx)
	}
	// Specific knowledge appears with one context repeatedly.
	for i := 0; i < 8; i++ {
		s.Observe("used for peeling potatoes", "peeler")
	}
	if !s.IsGeneric("used for the same reason", 5, 2.0) {
		t.Error("broad knowledge should be flagged generic")
	}
	if s.IsGeneric("used for peeling potatoes", 5, 2.0) {
		t.Error("specific knowledge should not be flagged generic")
	}
	if s.DistinctContexts("used for the same reason") != 8 {
		t.Errorf("distinct contexts = %d", s.DistinctContexts("used for the same reason"))
	}
	if s.Frequency("used for peeling potatoes") != 8 {
		t.Errorf("frequency = %d", s.Frequency("used for peeling potatoes"))
	}
	if n := len(s.ContextEntropies(0)); n != 2 {
		t.Errorf("%d distinct keys, want 2", n)
	}
}

// TestContextEntropyOrderIndependent: the entropy sum over these counts
// depends on the order it runs in, and 200 freshly built stats — each
// map iterating in its own order — all return the ascending-order value.
func TestContextEntropyOrderIndependent(t *testing.T) {
	counts := []int{1, 2, 4, 8, 16, 32}
	want := Entropy(counts)
	reversed := make([]int, len(counts))
	for i, c := range counts {
		reversed[len(counts)-1-i] = c
	}
	if Entropy(reversed) == want {
		t.Fatal("the count multiset no longer exercises order: pick one whose entropy sum depends on it")
	}
	for run := 0; run < 200; run++ {
		s := NewCooccurrenceStats[string]()
		for i := range counts {
			j := (i + run) % len(counts)
			for n := 0; n < counts[j]; n++ {
				s.Observe("used for the same reason", fmt.Sprintf("ctx%d", j))
			}
		}
		if got := s.ContextEntropy("used for the same reason"); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("run %d: ContextEntropy %v (%#x), ascending-order entropy %v (%#x)",
				run, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

func BenchmarkPerplexity(b *testing.B) {
	m, v := trainedLM()
	toks := ids(v, "capable of providing protection for the camera")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Perplexity(toks)
	}
}

// refNgramLM is the previous model, kept as the oracle: bigrams and
// trigrams counted under space-joined string keys, the padded sequence
// built per sentence, zero-count context keys inserted into the unigram
// map, and every sentence tokenized again for scoring.
type refNgramLM struct {
	uni, bi, tri map[string]int
	total, vocab int
}

const refBOS, refEOS = "<s>", "</s>"

func newRefNgramLM() *refNgramLM {
	return &refNgramLM{uni: map[string]int{}, bi: map[string]int{}, tri: map[string]int{}}
}

func (m *refNgramLM) train(sentence string) {
	toks := refTokenize(sentence)
	if len(toks) == 0 {
		return
	}
	seq := make([]string, 0, len(toks)+3)
	seq = append(seq, refBOS, refBOS)
	seq = append(seq, toks...)
	seq = append(seq, refEOS)
	for i := 2; i < len(seq); i++ {
		w := seq[i]
		if m.uni[w] == 0 {
			m.vocab++
		}
		m.uni[w]++
		m.total++
		m.bi[seq[i-1]+" "+w]++
		m.tri[seq[i-2]+" "+seq[i-1]+" "+w]++
	}
	for i := 1; i < len(seq); i++ {
		m.uni[seq[i-1]] += 0
	}
}

func (m *refNgramLM) prob(w2, w1, w string) float64 {
	const backoff = 0.4
	if c := m.tri[w2+" "+w1+" "+w]; c > 0 {
		if d := m.bi[w2+" "+w1]; d > 0 {
			return float64(c) / float64(d)
		}
	}
	if c := m.bi[w1+" "+w]; c > 0 {
		if d := m.uni[w1]; d > 0 {
			return backoff * float64(c) / float64(d)
		}
	}
	if c := m.uni[w]; c > 0 {
		return backoff * backoff * float64(c) / float64(m.total)
	}
	return backoff * backoff / float64(m.total+m.vocab+1)
}

func (m *refNgramLM) logProb(sentence string) float64 {
	toks := refTokenize(sentence)
	seq := make([]string, 0, len(toks)+3)
	seq = append(seq, refBOS, refBOS)
	seq = append(seq, toks...)
	seq = append(seq, refEOS)
	lp := 0.0
	for i := 2; i < len(seq); i++ {
		lp += math.Log(m.prob(seq[i-2], seq[i-1], seq[i]))
	}
	return lp
}

func (m *refNgramLM) perplexity(sentence string) float64 {
	toks := refTokenize(sentence)
	if len(toks) == 0 {
		return math.Inf(1)
	}
	return math.Exp(-m.logProb(sentence) / float64(len(toks)+1))
}

// TestNgramMatchesReference: the model over a Vocab's token IDs, on
// struct keys without the zero-count keys, scores bitwise like the
// previous code, on a corpus whose tokens repeat in many contexts.
func TestNgramMatchesReference(t *testing.T) {
	ref := newRefNgramLM()
	m, v := NewNgramLM(), NewVocab()
	corpus := append([]string{
		"used for walking the dog in the park with the dog",
		"the the the dog", "dog dog walking the", "a b a b a b c",
	}, trainingSentences...)
	for _, s := range corpus {
		ref.train(s)
		v.Add(s)
		m.Train(v.Tokens(s))
	}
	if m.VocabSize() != ref.vocab || m.total != ref.total {
		t.Fatalf("vocab/total %d/%d, reference %d/%d", m.VocabSize(), m.total, ref.vocab, ref.total)
	}
	if len(m.bi) != len(ref.bi) || len(m.tri) != len(ref.tri) {
		t.Fatalf("bigram/trigram types %d/%d, reference %d/%d", len(m.bi), len(m.tri), len(ref.bi), len(ref.tri))
	}
	probes := append([]string{
		"", "s", "<s>", "</s>", "<s> </s>", "dog the walking for used", "zzyzx qwrk flrm",
		"capable of providing protection for the", "Used For Walking The DOG!",
		"a b c", "b a b", "the dog dog the", "zzyzx dog qwrk walking",
	}, corpus...)
	for _, s := range probes {
		v.Add(s) // tokens no training sentence held get IDs the model never counted
		toks := v.Tokens(s)
		if got, want := m.Perplexity(toks), ref.perplexity(s); got != want {
			t.Errorf("Perplexity(%q) = %v, reference %v", s, got, want)
		}
		if got, want := m.LogProb(toks), ref.logProb(s); got != want {
			t.Errorf("LogProb(%q) = %v, reference %v", s, got, want)
		}
	}
}
