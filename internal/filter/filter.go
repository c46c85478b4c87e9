// Package filter implements COSMO's coarse-grained knowledge refinement
// (§3.3.1): rule-based filtering (sentence extraction, completeness,
// copy detection by edit distance, generic detection by frequency and
// entropy, perplexity thresholding) followed by embedding-similarity
// filtering that removes paraphrases of the behavior context (Eq. 1).
package filter

import (
	"sort"

	"cosmo/internal/embedding"
	"cosmo/internal/know"
	"cosmo/internal/parallel"
	"cosmo/internal/relations"
	"cosmo/internal/textproc"
)

// DropReason explains why a candidate was filtered.
type DropReason string

// Drop reasons, one per filter rule.
const (
	DropNone         DropReason = ""
	DropEmpty        DropReason = "empty"
	DropIncomplete   DropReason = "incomplete-sentence"
	DropCopy         DropReason = "copies-context"
	DropNoRelation   DropReason = "unparseable-relation"
	DropPerplexity   DropReason = "high-perplexity"
	DropGeneric      DropReason = "generic"
	DropParaphrase   DropReason = "paraphrase-similarity"
	DropDuplicate    DropReason = "duplicate"
	DropShortContent DropReason = "too-short"
)

// Config tunes the filter thresholds.
type Config struct {
	// MaxEditDistanceRatio: generations within this normalized edit
	// distance of the query / product type / title are copies.
	MaxEditDistanceRatio float64
	// PerplexityQuantile sets the perplexity threshold at this quantile
	// of the candidate distribution ("tune the threshold").
	PerplexityQuantile float64
	// GenericMinFreq, GenericMinEntropy and GenericMinContexts
	// parameterize the frequency+entropy generic test: a string is
	// generic when it is frequent AND spreads near-uniformly over many
	// distinct product-type contexts. Typical knowledge is confined to
	// the handful of types sharing its intent.
	GenericMinFreq     int
	GenericMinEntropy  float64
	GenericMinContexts int
	// MaxContextSimilarity: candidates whose embedding similarity to
	// their behavior context exceeds this are paraphrases (Eq. 1).
	MaxContextSimilarity float64
	// EmbeddingDim for the similarity model.
	EmbeddingDim int
	// Workers bounds the per-candidate fan-out (<= 0 means GOMAXPROCS).
	// The worker count never changes the output: per-candidate checks
	// run against read-only models and merge in input order.
	Workers int
}

// DefaultConfig returns thresholds calibrated on the simulator.
func DefaultConfig() Config {
	return Config{
		MaxEditDistanceRatio: 0.25,
		PerplexityQuantile:   0.90,
		GenericMinFreq:       10,
		GenericMinEntropy:    4.0,
		GenericMinContexts:   20,
		MaxContextSimilarity: 0.62,
		EmbeddingDim:         256,
	}
}

// Result reports the outcome for one candidate.
type Result struct {
	Candidate know.Candidate
	Kept      bool
	Reason    DropReason
}

// Report summarizes a filtering run.
type Report struct {
	Input   int
	Kept    int
	Dropped map[DropReason]int
	// PerplexityThreshold is the tuned threshold actually used.
	PerplexityThreshold float64
}

// Filter holds the models needed across stages.
type Filter struct {
	cfg Config
	lm  *textproc.NgramLM
	emb *embedding.Model
}

// New builds a filter; the n-gram LM is trained lazily on the first Run.
func New(cfg Config) *Filter {
	return &Filter{cfg: cfg, emb: embedding.New(cfg.EmbeddingDim)}
}

// view carries the per-candidate text derivations computed exactly once
// and reused by every later stage (LM training, co-occurrence, checks,
// and the kept-candidate parse).
type view struct {
	first string  // first sentence of the raw text
	norm  string  // NormalizeSpace of the raw text
	toks  []int32 // the token IDs of first in the run's vocabulary
}

// verdict is the order-independent part of a candidate's outcome; the
// duplicate check is order-sensitive and applied at merge time.
type verdict struct {
	reason DropReason
	rel    relations.Relation
	tail   string
}

// typePair is the co-occurrence context of a candidate: its product
// types.
type typePair struct{ a, b string }

// dupKey identifies a kept candidate's head and text, the fields of
// know.Candidate.Key.
type dupKey struct {
	behavior            know.BehaviorType
	query, prodA, prodB string
	text                string
}

// Run applies all coarse-grained stages in the paper's order and
// returns kept candidates (with Relation/Tail parsed) plus a
// per-candidate trace and a summary report. It first adds each
// candidate's first sentence and context to v, on the caller's
// goroutine, and reads every token from there on; a kept candidate's
// Text and ContextText are in v when it returns. Model fitting
// (perplexity LM, co-occurrence stats, threshold tuning) is sequential;
// the per-candidate checks then fan out across cfg.Workers since the
// fitted models are read-only. The output is identical for every worker
// count: results merge in input order, and the one order-sensitive rule
// (duplicate detection) runs in that sequential merge.
func (f *Filter) Run(v *textproc.Vocab, cands []know.Candidate) ([]know.Candidate, []Result, Report) {
	report := Report{Input: len(cands), Dropped: map[DropReason]int{}}
	results := make([]Result, len(cands))

	// First-sentence each candidate exactly once, in parallel, then
	// tokenize each distinct sentence and context once, in order.
	views := parallel.Map(f.cfg.Workers, cands, func(i int, c know.Candidate) view {
		return view{first: textproc.FirstSentence(c.Text), norm: textproc.NormalizeSpace(c.Text)}
	})
	for i, c := range cands {
		v.Add(views[i].first, c.ContextText)
		views[i].toks = v.Tokens(views[i].first)
	}

	// Train the perplexity LM on all first-sentences; well-formed text
	// dominates, so malformed candidates land in the high-perplexity tail.
	f.lm = textproc.NewNgramLM()
	for i := range cands {
		f.lm.Train(views[i].toks)
	}

	// Generic detection needs corpus-level co-occurrence statistics. The
	// context is the product-type pair, not the raw head: typical
	// knowledge legitimately repeats across many products of the same
	// types, while generic knowledge spreads across unrelated types. The
	// counts are final after this pass, so each frequent string's
	// entropy is worked out once, here.
	co := textproc.NewCooccurrenceStats[typePair]()
	for i, c := range cands {
		co.Observe(views[i].norm, typePair{c.TypeA, c.TypeB})
	}
	g := generic{co: co, entropy: co.ContextEntropies(f.cfg.GenericMinFreq)}

	// Tune the perplexity threshold at the configured quantile. The LM is
	// frozen now, so scoring fans out.
	scored := parallel.Map(f.cfg.Workers, views, func(i int, cv view) float64 {
		if cv.first == "" {
			return -1
		}
		return f.lm.Perplexity(cv.toks)
	})
	ppls := make([]float64, 0, len(cands))
	for _, p := range scored {
		if p >= 0 {
			ppls = append(ppls, p)
		}
	}
	sort.Float64s(ppls)
	pplThreshold := 0.0
	if len(ppls) > 0 {
		idx := int(f.cfg.PerplexityQuantile * float64(len(ppls)))
		if idx >= len(ppls) {
			idx = len(ppls) - 1
		}
		pplThreshold = ppls[idx]
	}
	report.PerplexityThreshold = pplThreshold

	// Per-candidate rule checks: pure reads of the fitted models. A
	// behavior's candidates are consecutive and share its context, so the
	// checks fan out over runs of equal ContextText, and each run embeds
	// its context for Eq. 1 at most once.
	verdicts := make([]verdict, len(cands))
	parallel.ForEach(f.cfg.Workers, contextRuns(cands), func(_ int, r run) {
		ctx := f.emb.Context(v, v.Tokens(cands[r.lo].ContextText))
		for i := r.lo; i < r.hi; i++ {
			verdicts[i] = f.check(v, cands[i], views[i], g, scored[i], pplThreshold, &ctx)
		}
		ctx.Release()
	})

	// Order-preserving merge: duplicate detection and the report counts
	// depend on input order, so they stay sequential.
	seen := map[dupKey]bool{}
	var kept []know.Candidate
	for i, c := range cands {
		reason := verdicts[i].reason
		key := dupKey{c.Behavior, c.Query, c.ProductA, c.ProductB, views[i].first}
		if reason == DropNone && seen[key] {
			reason = DropDuplicate
		}
		results[i] = Result{Candidate: c, Kept: reason == DropNone, Reason: reason}
		if reason != DropNone {
			report.Dropped[reason]++
			continue
		}
		// The triple was parsed during the check; reuse it.
		c.Text = views[i].first
		c.Relation = verdicts[i].rel
		c.Tail = verdicts[i].tail
		seen[key] = true
		kept = append(kept, c)
		report.Kept++
	}
	return kept, results, report
}

// generic is the fitted frequency+entropy test: the co-occurrence
// counts and the context entropy of every string generated at least
// GenericMinFreq times.
type generic struct {
	co      *textproc.CooccurrenceStats[typePair]
	entropy map[string]float64
}

// run is the half-open range [lo, hi) of consecutive candidates with one
// ContextText.
type run struct{ lo, hi int }

// contextRuns cuts cands into maximal runs of equal ContextText.
func contextRuns(cands []know.Candidate) []run {
	var runs []run
	for lo := 0; lo < len(cands); {
		hi := lo + 1
		for hi < len(cands) && cands[hi].ContextText == cands[lo].ContextText {
			hi++
		}
		runs = append(runs, run{lo, hi})
		lo = hi
	}
	return runs
}

// check applies the order-independent rules to one candidate whose
// derivations are cv; ppl is its first sentence's perplexity under the
// fitted LM, and ctx scores against c.ContextText.
func (f *Filter) check(v *textproc.Vocab, c know.Candidate, cv view, g generic,
	ppl, pplThreshold float64, ctx *embedding.Context) verdict {
	first := cv.first
	if first == "" {
		return verdict{reason: DropEmpty}
	}
	if len(cv.toks) < 2 {
		return verdict{reason: DropShortContent}
	}
	if !v.LooksComplete(first, cv.toks) {
		return verdict{reason: DropIncomplete}
	}
	// Copy detection against query, product types, and context title.
	for _, ref := range []string{c.Query, c.TypeA, c.TypeB, c.ContextText} {
		if ref == "" {
			continue
		}
		if textproc.WithinEditRatio(first, ref, f.cfg.MaxEditDistanceRatio) {
			return verdict{reason: DropCopy}
		}
	}
	rel, tail, ok := relations.ParseGeneration(first)
	if !ok {
		return verdict{reason: DropNoRelation}
	}
	if pplThreshold > 0 && ppl > pplThreshold {
		return verdict{reason: DropPerplexity}
	}
	if h, ok := g.entropy[cv.norm]; ok && h >= f.cfg.GenericMinEntropy &&
		g.co.DistinctContexts(cv.norm) >= f.cfg.GenericMinContexts {
		return verdict{reason: DropGeneric}
	}
	// Similarity filter (Eq. 1): paraphrases of the behavior context.
	if c.ContextText != "" {
		if ctx.Similarity(cv.toks) > f.cfg.MaxContextSimilarity {
			return verdict{reason: DropParaphrase}
		}
	}
	return verdict{rel: rel, tail: tail}
}

// Embedding exposes the filter's embedding model so downstream stages
// (e.g. COSMO-GNN knowledge vectorization) reuse the same space.
func (f *Filter) Embedding() *embedding.Model { return f.emb }
