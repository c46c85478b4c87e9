package textproc

import (
	"math"
	"strings"
)

// NgramLM is a trigram language model with stupid-backoff smoothing. It is
// the reproduction's substitute for the GPT-2 perplexity filter in the
// paper's coarse-grained filtering stage: trained on well-formed knowledge
// strings, it assigns markedly higher perplexity to truncated or malformed
// generations, and a tuned threshold removes them.
type NgramLM struct {
	// uni counts tokens; bi and tri count token tuples keyed by the
	// tuple itself, so neither training nor scoring builds a key string.
	uni   map[string]int
	bi    map[[2]string]int
	tri   map[[3]string]int
	total int
	vocab int
	// backoff is the stupid-backoff discount (0.4 in the original paper
	// by Brants et al.; kept configurable for tests).
	backoff float64
}

const (
	bosToken = "<s>"
	eosToken = "</s>"
	oovToken = "<unk>"
)

// NewNgramLM returns an empty model with the standard 0.4 backoff factor.
func NewNgramLM() *NgramLM {
	return &NgramLM{
		uni:     map[string]int{},
		bi:      map[[2]string]int{},
		tri:     map[[3]string]int{},
		backoff: 0.4,
	}
}

// Train adds one sentence to the model.
func (m *NgramLM) Train(sentence string) { m.TrainTokens(Tokenize(sentence)) }

// TrainTokens is Train for a caller that already holds Tokenize(sentence).
func (m *NgramLM) TrainTokens(toks []string) {
	if len(toks) == 0 {
		return
	}
	w2, w1 := bosToken, bosToken
	for i := 0; i <= len(toks); i++ {
		w := eosToken
		if i < len(toks) {
			w = toks[i]
		}
		if m.uni[w] == 0 {
			m.vocab++
		}
		m.uni[w]++
		m.total++
		m.bi[[2]string{w1, w}]++
		m.tri[[3]string{w2, w1, w}]++
		w2, w1 = w1, w
	}
}

// TrainAll trains on every sentence.
func (m *NgramLM) TrainAll(sentences []string) {
	for _, s := range sentences {
		m.Train(s)
	}
}

// prob returns the stupid-backoff score of w given the two preceding
// tokens. It is a score, not a normalized probability, which is fine for
// thresholding perplexity-like quantities.
func (m *NgramLM) prob(w2, w1, w string) float64 {
	if c := m.tri[[3]string{w2, w1, w}]; c > 0 {
		if d := m.bi[[2]string{w2, w1}]; d > 0 {
			return float64(c) / float64(d)
		}
	}
	if c := m.bi[[2]string{w1, w}]; c > 0 {
		if d := m.uni[w1]; d > 0 {
			return m.backoff * float64(c) / float64(d)
		}
	}
	if c := m.uni[w]; c > 0 {
		return m.backoff * m.backoff * float64(c) / float64(m.total)
	}
	// OOV: uniform over an extended vocabulary.
	return m.backoff * m.backoff / float64(m.total+m.vocab+1)
}

// LogProb returns the total natural-log score of the sentence.
func (m *NgramLM) LogProb(sentence string) float64 { return m.LogProbTokens(Tokenize(sentence)) }

// LogProbTokens is LogProb for a caller that already holds
// Tokenize(sentence).
func (m *NgramLM) LogProbTokens(toks []string) float64 {
	lp := 0.0
	w2, w1 := bosToken, bosToken
	for _, w := range toks {
		lp += math.Log(m.prob(w2, w1, w))
		w2, w1 = w1, w
	}
	return lp + math.Log(m.prob(w2, w1, eosToken))
}

// Perplexity returns exp(-LogProb/N) where N counts the scored tokens
// (words plus the end marker). Lower is better. Empty input returns +Inf.
func (m *NgramLM) Perplexity(sentence string) float64 {
	return m.PerplexityTokens(Tokenize(sentence))
}

// PerplexityTokens is Perplexity for a caller that already holds
// Tokenize(sentence).
func (m *NgramLM) PerplexityTokens(toks []string) float64 {
	if len(toks) == 0 {
		return math.Inf(1)
	}
	return math.Exp(-m.LogProbTokens(toks) / float64(len(toks)+1))
}

// VocabSize returns the number of distinct trained unigram types.
func (m *NgramLM) VocabSize() int { return m.vocab }

// KnownFraction returns the fraction of tokens in sentence that are in
// the model vocabulary; a cheap well-formedness signal used in tests.
func (m *NgramLM) KnownFraction(sentence string) float64 {
	toks := Tokenize(sentence)
	if len(toks) == 0 {
		return 0
	}
	known := 0
	for _, t := range toks {
		if m.uni[t] > 0 {
			known++
		}
	}
	return float64(known) / float64(len(toks))
}

// TruncateWords returns the first n words of s joined by spaces; used by
// the teacher-LLM noise model to fabricate incomplete generations.
func TruncateWords(s string, n int) string {
	f := strings.Fields(s)
	if n >= len(f) {
		return s
	}
	return strings.Join(f[:n], " ")
}
