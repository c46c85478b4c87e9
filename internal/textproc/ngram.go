package textproc

import "math"

// NgramLM is a trigram language model with stupid-backoff smoothing. It is
// the reproduction's substitute for the GPT-2 perplexity filter in the
// paper's coarse-grained filtering stage: trained on well-formed knowledge
// strings, it assigns markedly higher perplexity to truncated or malformed
// generations, and a tuned threshold removes them.
//
// The model counts token IDs: every sentence it trains on or scores is
// given as its token IDs in the caller's Vocab, the same for both.
type NgramLM struct {
	// uni counts tokens; bi and tri count token tuples keyed by the
	// tuple itself, so neither training nor scoring builds a key.
	uni   map[int32]int
	bi    map[[2]int32]int
	tri   map[[3]int32]int
	total int
	vocab int
	// backoff is the stupid-backoff discount (0.4 in the original paper
	// by Brants et al.; kept configurable for tests).
	backoff float64
}

// The sentence markers; Vocab IDs are never negative.
const (
	bosToken int32 = -1
	eosToken int32 = -2
)

// NewNgramLM returns an empty model with the standard 0.4 backoff factor.
func NewNgramLM() *NgramLM {
	return &NgramLM{
		uni:     map[int32]int{},
		bi:      map[[2]int32]int{},
		tri:     map[[3]int32]int{},
		backoff: 0.4,
	}
}

// Train adds one sentence, given as its token IDs, to the model.
func (m *NgramLM) Train(toks []int32) {
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
		m.bi[[2]int32{w1, w}]++
		m.tri[[3]int32{w2, w1, w}]++
		w2, w1 = w1, w
	}
}

// prob returns the stupid-backoff score of w given the two preceding
// tokens. It is a score, not a normalized probability, which is fine for
// thresholding perplexity-like quantities.
func (m *NgramLM) prob(w2, w1, w int32) float64 {
	if c := m.tri[[3]int32{w2, w1, w}]; c > 0 {
		if d := m.bi[[2]int32{w2, w1}]; d > 0 {
			return float64(c) / float64(d)
		}
	}
	if c := m.bi[[2]int32{w1, w}]; c > 0 {
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

// LogProb returns the total natural-log score of the sentence whose
// token IDs are toks.
func (m *NgramLM) LogProb(toks []int32) float64 {
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
func (m *NgramLM) Perplexity(toks []int32) float64 {
	if len(toks) == 0 {
		return math.Inf(1)
	}
	return math.Exp(-m.LogProb(toks) / float64(len(toks)+1))
}

// VocabSize returns the number of distinct trained unigram types.
func (m *NgramLM) VocabSize() int { return m.vocab }
