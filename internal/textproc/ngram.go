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
//
// The model counts token IDs. A caller that holds a Vocab trains and
// scores with its token IDs (TrainTokens, PerplexityTokens); the string
// methods number the tokens of their sentences themselves. One model
// takes its IDs from one of the two, never both.
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
	// words numbers the tokens the string methods meet in training.
	words map[string]int32
}

// The sentence markers and the ID the string methods give a token no
// training sentence held; Vocab IDs are never negative. Every count of
// an unseen token is 0, whichever ID it has, so one ID serves them all.
const (
	bosToken int32 = -1
	eosToken int32 = -2
	oovToken int32 = -3
)

// NewNgramLM returns an empty model with the standard 0.4 backoff factor.
func NewNgramLM() *NgramLM {
	return &NgramLM{
		uni:     map[int32]int{},
		bi:      map[[2]int32]int{},
		tri:     map[[3]int32]int{},
		backoff: 0.4,
		words:   map[string]int32{},
	}
}

// Train adds one sentence to the model.
func (m *NgramLM) Train(sentence string) { m.TrainTokens(m.wordIDs(sentence, true)) }

// wordIDs numbers the tokens of sentence. A token training has not met
// gets a new ID when train is set, and oovToken otherwise.
func (m *NgramLM) wordIDs(sentence string, train bool) []int32 {
	toks := Tokenize(sentence)
	ids := make([]int32, len(toks))
	for i, t := range toks {
		id, ok := m.words[t]
		switch {
		case ok:
		case train:
			//cosmo:lint-ignore unchecked-narrowing a model meets far fewer than 2^31 distinct tokens
			id = int32(len(m.words))
			m.words[t] = id
		default:
			id = oovToken
		}
		ids[i] = id
	}
	return ids
}

// TrainTokens adds one sentence, given as its token IDs, to the model.
func (m *NgramLM) TrainTokens(toks []int32) {
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

// TrainAll trains on every sentence.
func (m *NgramLM) TrainAll(sentences []string) {
	for _, s := range sentences {
		m.Train(s)
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

// LogProb returns the total natural-log score of the sentence.
func (m *NgramLM) LogProb(sentence string) float64 {
	return m.LogProbTokens(m.wordIDs(sentence, false))
}

// LogProbTokens is LogProb for a sentence given as its token IDs.
func (m *NgramLM) LogProbTokens(toks []int32) float64 {
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
	return m.PerplexityTokens(m.wordIDs(sentence, false))
}

// PerplexityTokens is Perplexity for a sentence given as its token IDs.
func (m *NgramLM) PerplexityTokens(toks []int32) float64 {
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
	toks := m.wordIDs(sentence, false)
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
