// Package classifier implements the critic classifiers of §3.3.2: models
// trained on the human-annotated sample that populate plausibility and
// typicality judgments to every knowledge candidate that survived coarse
// filtering. The paper fine-tunes DeBERTa-large; this reproduction uses
// L2-regularized logistic regression over hashed text features, which
// separates the simulator's generation modes with comparable reliability
// and is consumed identically (scores thresholded at 0.5).
package classifier

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"

	"cosmo/internal/fnv1a"
	"cosmo/internal/know"
	"cosmo/internal/parallel"
	"cosmo/internal/textproc"
)

// Featurizer maps candidates to sparse hashed feature indices. It is
// safe for concurrent use: each AppendFeatures call reads the tokens and
// stems of a candidate's texts from a vocabulary and borrows its stem
// lists from a pool the featurizer owns, so a warm call allocates
// nothing.
type Featurizer struct {
	dim int
	// scratch pools *featScratch.
	scratch sync.Pool
}

// featScratch is the working memory of one AppendFeatures call.
type featScratch struct {
	content []int32 // the stem IDs of the text's non-stopword tokens
	context []int32 // the content stem IDs of the context
}

// NewFeaturizer returns a featurizer with the given hash dimension.
func NewFeaturizer(dim int) *Featurizer {
	if dim < 64 {
		dim = 64
	}
	return &Featurizer{dim: dim}
}

// Dim returns the feature space dimension.
func (f *Featurizer) Dim() int { return f.dim }

// FNV-1a states after the feature-kind prefixes; a feature continues
// from one of them with its parts, so no feature string is built (FNV of
// a concatenation equals feeding the parts in order).
var (
	wordPrefix    = fnv1a.String32(fnv1a.Offset32, "w:")
	bigramPrefix  = fnv1a.String32(fnv1a.Offset32, "b:")
	relPrefix     = fnv1a.String32(fnv1a.Offset32, "rel:")
	behPrefix     = fnv1a.String32(fnv1a.Offset32, "beh:")
	domPrefix     = fnv1a.String32(fnv1a.Offset32, "dom:")
	lenPrefix     = fnv1a.String32(fnv1a.Offset32, "len:")
	overlapPrefix = fnv1a.String32(fnv1a.Offset32, "ovl:")
	crossPrefix   = fnv1a.String32(fnv1a.Offset32, "x:")
	textPrefix    = fnv1a.String32(fnv1a.Offset32, "t3:")
)

func (f *Featurizer) slot(h uint32) int {
	//cosmo:lint-ignore unchecked-narrowing dim is clamped to >= 64 in NewFeaturizer and config dims stay far below 2^32
	return int(h % uint32(f.dim))
}

// AddTexts adds to v the texts AppendFeatures reads of each candidate:
// its Text and its ContextText.
func AddTexts(v *textproc.Vocab, cands []know.Candidate) {
	for _, c := range cands {
		v.Add(c.Text, c.ContextText)
	}
}

// AppendFeatures appends the sparse feature indices of a candidate whose
// Text and ContextText are in v to dst, growing it at most once.
// Duplicate indices are allowed (they act as feature counts).
func (f *Featurizer) AppendFeatures(dst []int, v *textproc.Vocab, c know.Candidate) []int {
	sc, _ := f.scratch.Get().(*featScratch)
	if sc == nil {
		sc = new(featScratch)
	}
	defer f.scratch.Put(sc)
	toks := v.Tokens(c.Text)
	content := sc.content[:0]
	for _, t := range toks {
		if !v.IsStopword(t) {
			content = append(content, v.Stem(t))
		}
	}
	context := v.AppendContentStems(sc.context[:0], c.ContextText)
	sc.content, sc.context = content, context
	// Every feature hashes the token's stem. Two features per token,
	// then 4 + 1 + up to 8 + 1 below.
	idx := slices.Grow(dst, 2*len(toks)+14)
	for i, t := range toks {
		st := v.StemText(v.Stem(t))
		idx = append(idx, f.slot(fnv1a.String32(wordPrefix, st)))
		if i+1 < len(toks) {
			next := v.StemText(v.Stem(toks[i+1]))
			idx = append(idx, f.slot(fnv1a.String32(fnv1a.Byte32(fnv1a.String32(bigramPrefix, st), '_'), next)))
		}
	}
	idx = append(idx,
		f.slot(fnv1a.String32(relPrefix, string(c.Relation))),
		f.slot(fnv1a.String32(behPrefix, string(c.Behavior))),
		f.slot(fnv1a.String32(domPrefix, string(c.Domain))),
		f.slot(fnv1a.String32(lenPrefix, lengthBucket(len(toks)))),
	)
	// Overlap between the knowledge text and the behavior context: high
	// overlap signals paraphrase, low overlap signals new information.
	// The text's content stems are the stems of its non-stopword tokens.
	overlap := textproc.StemOverlap(content, context)
	idx = append(idx, f.slot(fnv1a.String32(overlapPrefix, overlapBucket(overlap))))
	// Cross features between the knowledge content and the product-type
	// labels let the model memorize which intents belong to which types —
	// the world knowledge a fine-tuned LM encodes. For co-buy this is
	// what separates a shared reason from a one-sided one. A stem is
	// skipped when it is a stopword, as the reference did on stems.
	for _, t := range toks[:min(len(toks), 4)] {
		st := v.StemText(v.Stem(t))
		if textproc.IsStopword(st) {
			continue
		}
		h := fnv1a.Byte32(fnv1a.String32(crossPrefix, st), '|')
		if c.TypeA != "" {
			idx = append(idx, f.slot(fnv1a.String32(h, c.TypeA)))
		}
		if c.TypeB != "" {
			idx = append(idx, f.slot(fnv1a.String32(h, c.TypeB)))
		}
	}
	// Full text × type-pair cross (order-normalized): typicality of a
	// co-buy explanation is a property of (knowledge, type pair), so the
	// head memorizes exactly and generalizes through the additive
	// features above for unseen pairs. The text part is the stems joined
	// by single spaces.
	ta, tb := c.TypeA, c.TypeB
	if ta > tb {
		ta, tb = tb, ta
	}
	h := textPrefix
	for i, t := range toks {
		if i > 0 {
			h = fnv1a.Byte32(h, ' ')
		}
		h = fnv1a.String32(h, v.StemText(v.Stem(t)))
	}
	h = fnv1a.String32(fnv1a.Byte32(fnv1a.String32(fnv1a.Byte32(h, '|'), ta), '|'), tb)
	return append(idx, f.slot(h))
}

func lengthBucket(n int) string {
	switch {
	case n <= 2:
		return "xs"
	case n <= 4:
		return "s"
	case n <= 7:
		return "m"
	default:
		return "l"
	}
}

func overlapBucket(o float64) string {
	switch {
	case o < 0.1:
		return "none"
	case o < 0.3:
		return "low"
	case o < 0.6:
		return "mid"
	default:
		return "high"
	}
}

// LogReg is a binary logistic-regression model over sparse features.
type LogReg struct {
	W    []float64
	Bias float64
}

// TrainConfig controls SGD training.
type TrainConfig struct {
	Epochs int
	LR     float64
	L2     float64
	Seed   int64
}

// DefaultTrainConfig returns sane defaults for the critic heads.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 30, LR: 0.25, L2: 1e-6, Seed: 23}
}

// TrainLogReg fits a model on sparse samples X with boolean labels y.
func TrainLogReg(dim int, X [][]int, y []bool, cfg TrainConfig) *LogReg {
	m := &LogReg{W: make([]float64, dim)}
	if len(X) == 0 {
		return m
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	order := rng.Perm(len(X))
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		lr := cfg.LR / (1 + 0.3*float64(epoch))
		for _, i := range order {
			p := m.Prob(X[i])
			t := 0.0
			if y[i] {
				t = 1.0
			}
			g := p - t
			for _, j := range X[i] {
				m.W[j] -= lr * (g + cfg.L2*m.W[j])
			}
			m.Bias -= lr * g
		}
	}
	return m
}

// Prob returns P(label=true | x).
func (m *LogReg) Prob(x []int) float64 {
	z := m.Bias
	for _, j := range x {
		if j >= 0 && j < len(m.W) {
			z += m.W[j]
		}
	}
	return sigmoid(z)
}

func sigmoid(z float64) float64 {
	if z > 35 {
		return 1
	}
	if z < -35 {
		return 0
	}
	return 1 / (1 + math.Exp(-z))
}

// Critic bundles the plausibility and typicality heads over a shared
// featurizer — the deployed scoring model of the pipeline.
type Critic struct {
	Feat      *Featurizer
	Plausible *LogReg
	Typical   *LogReg
}

// Labeled pairs a candidate with its adjudicated human labels.
type Labeled struct {
	Candidate know.Candidate
	Plausible bool
	Typical   bool
}

// TrainCritic fits both heads on the annotated sample, whose texts
// (AddTexts) must be in v.
func TrainCritic(dim int, v *textproc.Vocab, data []Labeled, cfg TrainConfig) *Critic {
	feat := NewFeaturizer(dim)
	X := make([][]int, len(data))
	yp := make([]bool, len(data))
	yt := make([]bool, len(data))
	for i, d := range data {
		X[i] = feat.AppendFeatures(nil, v, d.Candidate)
		yp[i] = d.Plausible
		yt[i] = d.Typical
	}
	cfgT := cfg
	cfgT.Seed = cfg.Seed + 1
	return &Critic{
		Feat:      feat,
		Plausible: TrainLogReg(dim, X, yp, cfg),
		Typical:   TrainLogReg(dim, X, yt, cfgT),
	}
}

// Score fills PlausibleScore and TypicalScore on a copy of cands, whose
// texts (AddTexts) are in v, across the given worker count (<= 0 means
// GOMAXPROCS). Scoring is pure per candidate — featurization and the
// logistic heads only read trained state and v — so the output is the
// same for every worker count. The candidates are cut into about four
// spans per worker, and each span reuses one feature buffer.
func (c *Critic) Score(v *textproc.Vocab, cands []know.Candidate, workers int) []know.Candidate {
	out := append(make([]know.Candidate, 0, len(cands)), cands...)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	size := max(1, (len(out)+4*workers-1)/(4*workers))
	spans := make([][]know.Candidate, 0, (len(out)+size-1)/size)
	for rest := out; len(rest) > 0; rest = rest[min(size, len(rest)):] {
		spans = append(spans, rest[:min(size, len(rest))])
	}
	parallel.ForEach(workers, spans, func(_ int, span []know.Candidate) {
		var x []int
		for i := range span {
			cd := &span[i]
			x = c.Feat.AppendFeatures(x[:0], v, *cd)
			cd.PlausibleScore = c.Plausible.Prob(x)
			cd.TypicalScore = c.Typical.Prob(x)
		}
	})
	return out
}

// Evaluate measures head accuracy and AUC on labeled data, whose texts
// are in v.
func (c *Critic) Evaluate(v *textproc.Vocab, data []Labeled) (plauAcc, typAcc, plauAUC, typAUC float64) {
	if len(data) == 0 {
		return
	}
	var pScores, tScores []float64
	var pLabels, tLabels []bool
	pCorrect, tCorrect := 0, 0
	var x []int
	for _, d := range data {
		x = c.Feat.AppendFeatures(x[:0], v, d.Candidate)
		pp := c.Plausible.Prob(x)
		tp := c.Typical.Prob(x)
		if (pp >= 0.5) == d.Plausible {
			pCorrect++
		}
		if (tp >= 0.5) == d.Typical {
			tCorrect++
		}
		pScores = append(pScores, pp)
		tScores = append(tScores, tp)
		pLabels = append(pLabels, d.Plausible)
		tLabels = append(tLabels, d.Typical)
	}
	n := float64(len(data))
	return float64(pCorrect) / n, float64(tCorrect) / n, AUC(pScores, pLabels), AUC(tScores, tLabels)
}

// AUC computes the area under the ROC curve via the rank statistic.
// Returns 0.5 when one class is absent.
func AUC(scores []float64, labels []bool) float64 {
	type pair struct {
		s   float64
		pos bool
	}
	ps := make([]pair, len(scores))
	npos, nneg := 0, 0
	for i := range scores {
		ps[i] = pair{scores[i], labels[i]}
		if labels[i] {
			npos++
		} else {
			nneg++
		}
	}
	if npos == 0 || nneg == 0 {
		return 0.5
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].s < ps[j].s })
	// Sum ranks of positives, handling ties by average rank.
	rankSum := 0.0
	i := 0
	for i < len(ps) {
		j := i
		for j < len(ps) && ps[j].s == ps[i].s {
			j++
		}
		avgRank := float64(i+j+1) / 2.0 // ranks are 1-based: (i+1 + j) / 2
		for k := i; k < j; k++ {
			if ps[k].pos {
				rankSum += avgRank
			}
		}
		i = j
	}
	return (rankSum - float64(npos)*float64(npos+1)/2.0) / (float64(npos) * float64(nneg))
}
