// Package cosmolm implements COSMO-LM, the instruction-tuned efficient
// language model of §3.4. The paper fine-tunes LLaMA-7b/13b on ~30k
// instruction examples; this reproduction learns the same conditional
// behavior from the same instruction data with a retrieval-smoothed
// conditional generator plus logistic prediction heads:
//
//   - Generation: P(knowledge tail | behavior context) is estimated from
//     the typical-only generation examples via an inverted token index
//     with IDF weighting and domain/relation backoff. Because the
//     training outputs are exclusively high-typicality knowledge, the
//     model generates typical knowledge by construction — the alignment
//     property instruction tuning buys.
//   - Prediction: the four yes/no tasks (plausibility, typicality,
//     co-purchase, search relevance) are logistic heads over hashed
//     input tokens.
//
// Every call charges the shared cost meter at the 7b-class rate, which
// is what makes the paper's serving-efficiency claim measurable against
// the OPT teacher.
package cosmolm

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"cosmo/internal/catalog"
	"cosmo/internal/classifier"
	"cosmo/internal/fnv1a"
	"cosmo/internal/instruction"
	"cosmo/internal/llm"
	"cosmo/internal/relations"
	"cosmo/internal/textproc"
)

// Generated is one knowledge generation from COSMO-LM.
type Generated struct {
	Relation relations.Relation
	Tail     string
	Text     string
	Score    float64
}

// Scored is a generation with the model's own plausibility and
// typicality predictions for it.
type Scored struct {
	Generated
	Plausibility float64
	Typicality   float64
}

// Config controls training.
type Config struct {
	// HeadDim is the hash dimension of the prediction heads.
	HeadDim int
	// Train is the logistic-regression training configuration.
	Train classifier.TrainConfig
}

// DefaultConfig returns sane defaults.
func DefaultConfig() Config {
	return Config{HeadDim: 1 << 14, Train: classifier.DefaultTrainConfig()}
}

// tailEntry is one learned knowledge tail.
type tailEntry struct {
	relation relations.Relation
	tail     string
	text     string // relations.Verbalize(relation, tail), made once
	count    int
	domains  map[catalog.Category]int
}

// posting says that a content token co-occurred count times with the
// tail; weight is the score one occurrence of the token in a context
// adds to that tail, idf(token)·log(1+count).
type posting struct {
	tail   int32
	count  int32
	weight float64
}

// Model is the trained COSMO-LM.
type Model struct {
	tails []tailEntry
	// postings maps content token -> the tails it co-occurred with, by
	// ascending tail ID.
	postings map[string][]posting
	docFreq  map[string]int
	numDocs  int
	// prior holds the domain prior per domain and tail ID,
	// 0.5·log(1+count of the tail's examples in that domain); a domain
	// no tail carries has no row.
	prior map[catalog.Category][]float64

	headDim int
	heads   map[instruction.Task]*classifier.LogReg

	cost llm.CostMeter
	// scratch pools *scratch; the two dense slices are sized to tails.
	scratch sync.Pool
}

// scratch is the per-call working memory of Generate and Predict.
type scratch struct {
	ids     []int32   // input encoded from a vocabulary
	toks    []string  // encoded input
	idx     []int     // head features
	acc     []float64 // score per tail ID; zero between calls
	seen    []bool    // tail ID is in touched; false between calls
	touched []int32
	cands   []cand
	gens    []Generated // generate's result
}

type cand struct {
	id int32
	s  float64
}

func (m *Model) getScratch() *scratch {
	sc, _ := m.scratch.Get().(*scratch)
	if sc == nil {
		sc = &scratch{acc: make([]float64, len(m.tails)), seen: make([]bool, len(m.tails))}
	}
	return sc
}

// AddInputs adds to v the texts Train reads of each instance (AddInput).
func AddInputs(v *textproc.Vocab, data []instruction.Instance) {
	for _, in := range data {
		AddInput(v, in.Input)
	}
}

// AddInput adds to v the texts Train and GenerateScored read of an
// input: the two sides of its first '|'.
func AddInput(v *textproc.Vocab, input string) {
	left, right, ok := strings.Cut(input, "|")
	v.Add(left)
	if ok {
		v.Add(right)
	}
}

// Train fits COSMO-LM on instruction data whose inputs (AddInputs) are
// in v. It encodes each input from v's stem IDs and counts the inverted
// index by stem ID; the trained model holds copies of the stems it keys
// on, not v.
func Train(v *textproc.Vocab, data []instruction.Instance, cfg Config) *Model {
	if cfg.HeadDim <= 0 {
		cfg = DefaultConfig()
	}
	m := &Model{
		headDim: cfg.HeadDim,
		heads:   map[instruction.Task]*classifier.LogReg{},
	}
	inverted := make([]map[int]int, v.NumStems()) // stem ID -> tail ID -> count
	docFreq := make([]int, v.NumStems())
	lastDoc := make([]int, v.NumStems()) // the last document, numbered from 1, that counted the stem
	tailID := map[tailKey]int{}
	headX := map[instruction.Task][][]int{}
	headY := map[instruction.Task][]bool{}
	var ids []int32
	var toks []string
	var arena []int // the head rows, cut from shared blocks
	for _, in := range data {
		switch in.Task {
		case instruction.TaskGenerate:
			rel, tail, ok := relations.ParseGeneration(in.Output)
			if !ok {
				continue
			}
			id, seen := tailID[tailKey{rel, tail}]
			if !seen {
				id = len(m.tails)
				tailID[tailKey{rel, tail}] = id
				m.tails = append(m.tails, tailEntry{
					relation: rel, tail: tail, text: relations.Verbalize(rel, tail),
					domains: map[catalog.Category]int{},
				})
			}
			m.tails[id].count++
			m.tails[id].domains[in.Domain]++
			m.numDocs++
			ids, _ = encodeVocab(ids[:0], v, in.Input)
			for _, st := range ids {
				mm := inverted[st]
				if mm == nil {
					mm = map[int]int{}
					inverted[st] = mm
				}
				mm[id]++
				if lastDoc[st] != m.numDocs {
					docFreq[st]++
					lastDoc[st] = m.numDocs
				}
			}
		default:
			var split int
			ids, split = encodeVocab(ids[:0], v, in.Input)
			toks = stemTexts(toks[:0], v, ids)
			if n := numFeatures(len(toks), split) + 1; cap(arena)-len(arena) < n {
				arena = make([]int, 0, max(n, 1<<12))
			}
			lo := len(arena)
			arena = append(m.appendFeatures(arena, toks, split), m.taskFeature(in.Task))
			headX[in.Task] = append(headX[in.Task], arena[lo:len(arena):len(arena)])
			headY[in.Task] = append(headY[in.Task], in.Output == "yes")
		}
	}
	m.buildPostings(v, inverted, docFreq)
	m.prior = buildPrior(m.tails)
	for task, X := range headX {
		m.heads[task] = classifier.TrainLogReg(m.headDim, X, headY[task], cfg.Train)
	}
	return m
}

// tailKey identifies a learned tail: its relation and text.
type tailKey struct {
	rel  relations.Relation
	tail string
}

// buildPostings turns the stem ID -> tail -> count index and the
// per-stem document frequencies into the maps Generate reads, keyed by
// one copy of each stem, with each posting's weight worked out once.
func (m *Model) buildPostings(v *textproc.Vocab, inverted []map[int]int, docFreq []int) {
	m.postings, m.docFreq = map[string][]posting{}, map[string]int{}
	for st, counts := range inverted {
		if counts == nil {
			continue
		}
		idf := math.Log(1 + float64(m.numDocs)/float64(1+docFreq[st]))
		ps := make([]posting, 0, len(counts))
		for id, cnt := range counts {
			//cosmo:lint-ignore unchecked-narrowing Train counts instances of tails it holds, so a tail ID or count fits int32
			ps = append(ps, posting{tail: int32(id), count: int32(cnt), weight: idf * math.Log(1+float64(cnt))})
		}
		slices.SortFunc(ps, func(a, b posting) int { return cmp.Compare(a.tail, b.tail) })
		//cosmo:lint-ignore unchecked-narrowing st indexes v's stems, which number far fewer than 2^31
		key := strings.Clone(v.StemText(int32(st)))
		m.postings[key], m.docFreq[key] = ps, docFreq[st]
	}
}

// buildPrior works out the domain prior generate adds to every tail it
// scores, once per (domain, tail) instead of once per touched tail.
func buildPrior(tails []tailEntry) map[catalog.Category][]float64 {
	prior := map[catalog.Category][]float64{}
	for id, te := range tails {
		for d, cnt := range te.domains {
			row := prior[d]
			if row == nil {
				row = make([]float64, len(tails))
				prior[d] = row
			}
			row[id] = 0.5 * math.Log(1+float64(cnt))
		}
	}
	return prior
}

// explanationSep joins a behavior context and a candidate explanation
// into the input of the plausibility and typicality heads, as the
// instruction data spells it.
const explanationSep = " | explanation: "

var explanationStems = textproc.ContentStems(explanationSep)

// appendEncoded appends the stemmed content tokens of a verbalized input
// to dst and returns how many of them lie left of the first '|' (-1 when
// the input has none). The template markers '|' and ':' separate tokens
// like a space does, so the two sides tokenize independently: the tokens
// of a+"|"+b are those of a followed by those of b.
func appendEncoded(dst []string, input string) ([]string, int) {
	bar := strings.IndexByte(input, '|')
	if bar < 0 {
		return textproc.AppendContentStems(dst, input), -1
	}
	base := len(dst)
	dst = textproc.AppendContentStems(dst, input[:bar])
	split := len(dst) - base
	return textproc.AppendContentStems(dst, input[bar+1:]), split
}

// encodeVocab is appendEncoded for an input whose sides (AddInputs) are
// in v: it appends their content stem IDs.
func encodeVocab(dst []int32, v *textproc.Vocab, input string) ([]int32, int) {
	left, right, ok := strings.Cut(input, "|")
	base := len(dst)
	dst = v.AppendContentStems(dst, left)
	if !ok {
		return dst, -1
	}
	split := len(dst) - base
	return v.AppendContentStems(dst, right), split
}

// stemTexts appends the texts of the stem IDs ids of v to dst.
func stemTexts(dst []string, v *textproc.Vocab, ids []int32) []string {
	for _, st := range ids {
		dst = append(dst, v.StemText(st))
	}
	return dst
}

// FNV-1a states after the feature-kind prefixes; a feature continues
// from one of them with its tokens, so no feature string is built.
var (
	wordPrefix   = fnv1a.String32(fnv1a.Offset32, "w:")
	bigramPrefix = fnv1a.String32(fnv1a.Offset32, "b:")
	crossPrefix  = fnv1a.String32(fnv1a.Offset32, "x:")
	taskPrefix   = fnv1a.String32(fnv1a.Offset32, "task:")
)

func (m *Model) slot(h uint32) int {
	//cosmo:lint-ignore unchecked-narrowing headDim is validated positive in Train and config dims stay far below 2^32
	return int(h % uint32(m.headDim))
}

// appendFeatures appends the hashed features of an encoded input that
// every head shares: "w:"+t per token, "b:"+t+"_"+next per adjacent
// pair and, when the input has two segments, "x:"+a+"|"+b crosses.
func (m *Model) appendFeatures(idx []int, toks []string, split int) []int {
	for i, t := range toks {
		idx = append(idx, m.slot(fnv1a.String32(wordPrefix, t)))
		if i+1 < len(toks) {
			idx = append(idx, m.slot(fnv1a.String32(fnv1a.Byte32(fnv1a.String32(bigramPrefix, t), '_'), toks[i+1])))
		}
	}
	// Cross features between the two context segments (query vs. product,
	// or product vs. product) so the relevance heads can model the
	// interaction rather than each side's marginal frequency.
	if split >= 0 {
		right := toks[split:min(len(toks), split+6)]
		for _, a := range toks[:min(split, 4)] {
			h := fnv1a.Byte32(fnv1a.String32(crossPrefix, a), '|')
			for _, b := range right {
				idx = append(idx, m.slot(fnv1a.String32(h, b)))
			}
		}
	}
	return idx
}

// numFeatures is how many features appendFeatures appends for n encoded
// tokens split at split.
func numFeatures(n, split int) int {
	f := max(2*n-1, 0)
	if split >= 0 {
		f += min(split, 4) * (min(n, split+6) - split)
	}
	return f
}

// taskFeature is the feature that closes every head input, "task:"+task.
func (m *Model) taskFeature(task instruction.Task) int {
	return m.slot(fnv1a.String32(taskPrefix, string(task)))
}

// Generate produces the top-k knowledge generations for a behavior
// context. The context is the same verbalization the instruction data
// uses, e.g. "search query: camping | purchased: Acme Air Mattress" or
// "co-purchased products: <titleA> and <titleB>". If rel is non-empty
// only that relation's tails are considered. Domain "" disables the
// domain prior.
func (m *Model) Generate(context string, domain catalog.Category, rel relations.Relation, k int) []Generated {
	sc := m.getScratch()
	defer m.scratch.Put(sc)
	sc.toks, _ = appendEncoded(sc.toks[:0], context)
	gens := m.generate(sc, sc.toks, domain, rel, k)
	return append(make([]Generated, 0, len(gens)), gens...)
}

// generate is Generate over an encoded context, into sc.gens. Scores
// accumulate in a dense slice over tail IDs; each tail's additions still
// happen in token order, so the sums do not depend on how the index is
// laid out.
func (m *Model) generate(sc *scratch, toks []string, domain catalog.Category, rel relations.Relation, k int) []Generated {
	m.cost.ChargeCustom(llm.CostPerTokenCosmoLM, len(toks)+8)
	for _, tok := range toks {
		for _, p := range m.postings[tok] {
			if !sc.seen[p.tail] {
				sc.seen[p.tail] = true
				sc.touched = append(sc.touched, p.tail)
			}
			sc.acc[p.tail] += p.weight
		}
	}
	// Select the k best in one pass (the Snapshot.relatedCollect scheme):
	// cands buffers up to 2k, is cut back to its best k whenever it
	// fills, and from then on turns away anything ranking after the k-th.
	cands, full := sc.cands[:0], false
	var kth cand
	// Domain prior: tails seen in this domain get a boost. A tail the
	// domain never saw gets log(1) = 0, as does every tail of a domain
	// with no row, so skipping the addition leaves the score unchanged.
	var prior []float64
	if domain != "" {
		prior = m.prior[domain]
	}
	for _, id := range sc.touched {
		s := sc.acc[id]
		sc.acc[id], sc.seen[id] = 0, false
		if rel != "" && m.tails[id].relation != rel {
			continue
		}
		if prior != nil {
			s += prior[id]
		}
		c := cand{id, s}
		if full && m.rank(c, kth) > 0 {
			continue
		}
		cands = append(cands, c)
		if len(cands) == 2*k {
			slices.SortFunc(cands, m.rank)
			cands = cands[:k]
			kth, full = cands[k-1], true
		}
	}
	sc.touched = sc.touched[:0]
	slices.SortFunc(cands, m.rank)
	sc.cands = cands
	k = min(max(k, 0), len(cands))
	out := sc.gens[:0]
	for i := 0; i < k; i++ {
		// Prune low-confidence continuations: tails whose score rides on
		// incidental token overlap (brands, adjectives) land far below
		// the best match and are dropped, like beam pruning in decoding.
		if i > 0 && cands[i].s < minScoreRatio*cands[0].s {
			break
		}
		te := m.tails[cands[i].id]
		out = append(out, Generated{
			Relation: te.relation,
			Tail:     te.tail,
			Text:     te.text,
			Score:    cands[i].s,
		})
	}
	sc.gens = out
	return out
}

// rank orders candidates best first: score, then tail text, relation
// and tail ID, so that no two candidates compare equal. Tails are keyed
// by relation and text, so the same text can occur under two relations.
// Scores rarely tie, so the tails are read only when they do.
func (m *Model) rank(a, b cand) int {
	if c := cmp.Compare(b.s, a.s); c != 0 {
		return c
	}
	ta, tb := &m.tails[a.id], &m.tails[b.id]
	if c := strings.Compare(ta.tail, tb.tail); c != 0 {
		return c
	}
	if c := cmp.Compare(ta.relation, tb.relation); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

// minScoreRatio is the beam-pruning threshold relative to the top score.
const minScoreRatio = 0.45

// Predict answers one of the four yes/no tasks for an input context.
// It returns the boolean decision and the probability of "yes".
func (m *Model) Predict(task instruction.Task, input string) (bool, float64) {
	sc := m.getScratch()
	defer m.scratch.Put(sc)
	var split int
	sc.toks, split = appendEncoded(sc.toks[:0], input)
	m.cost.ChargeCustom(llm.CostPerTokenCosmoLM, len(sc.toks)+4)
	head, ok := m.heads[task]
	if !ok {
		return false, 0.5
	}
	sc.idx = append(m.appendFeatures(sc.idx[:0], sc.toks, split), m.taskFeature(task))
	p := head.Prob(sc.idx)
	return p >= 0.5, p
}

// headProb closes the shared features x (whose last slot is free) with
// the task's own feature and asks that head; a task the model has no
// head for reads 0.5.
func (m *Model) headProb(task instruction.Task, x []int) float64 {
	head, ok := m.heads[task]
	if !ok {
		return 0.5
	}
	x[len(x)-1] = m.taskFeature(task)
	return head.Prob(x)
}

// GenerateScored is Generate over all relations followed, per
// generation g, by Predict of the plausibility and the typicality task
// on context+" | explanation: "+g.Text — the loop of the KG expansion
// stage — with the same results and the same three kinds of charge on
// the cost meter. The context's sides (AddInput) are in v, which it is
// encoded from once; each generation's input is the context's tokens
// followed by the explanation's, and the two heads differ only in their
// closing task feature, so they share one feature vector.
func (m *Model) GenerateScored(v *textproc.Vocab, context string, domain catalog.Category, k int) []Scored {
	sc := m.getScratch()
	defer m.scratch.Put(sc)
	var split int
	sc.ids, split = encodeVocab(sc.ids[:0], v, context)
	toks := stemTexts(sc.toks[:0], v, sc.ids)
	gens := m.generate(sc, toks, domain, "", k)
	if split < 0 {
		split = len(toks) // the separator's '|' is the input's first
	}
	nctx := len(toks)
	out := make([]Scored, len(gens))
	for i, g := range gens {
		toks = textproc.AppendContentStems(append(toks[:nctx], explanationStems...), g.Text)
		m.cost.ChargeCustom(llm.CostPerTokenCosmoLM, len(toks)+4)
		m.cost.ChargeCustom(llm.CostPerTokenCosmoLM, len(toks)+4)
		sc.idx = append(m.appendFeatures(sc.idx[:0], toks, split), 0)
		out[i] = Scored{
			Generated:    g,
			Plausibility: m.headProb(instruction.TaskPlausibility, sc.idx),
			Typicality:   m.headProb(instruction.TaskTypicality, sc.idx),
		}
	}
	sc.toks = toks
	return out
}

// KnownTails returns the number of distinct knowledge tails learned.
func (m *Model) KnownTails() int { return len(m.tails) }

// Tasks returns the prediction tasks the model was trained for.
func (m *Model) Tasks() []instruction.Task {
	out := make([]instruction.Task, 0, len(m.heads))
	for t := range m.heads {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Cost returns accumulated simulated inference cost.
func (m *Model) Cost() llm.CostSnapshot { return m.cost.Snapshot() }

// ResetCost zeroes the cost meter (used between benchmark phases).
func (m *Model) ResetCost() { m.cost.Reset() }

// SearchContext builds the canonical search-buy context string.
func SearchContext(query, productTitle string) string {
	return "search query: " + query + " | purchased: " + productTitle
}
