package filter

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"cosmo/internal/embedding"
	"cosmo/internal/know"
	"cosmo/internal/relations"
	"cosmo/internal/textproc"
)

// refRun is the previous Run, kept as the oracle: every stage but the
// LM goes back to the strings (tokenizing the first sentence again for
// the check, the completeness rule and the embedding), the LM reads a
// vocabulary of its own, each perplexity is scored twice, and the whole
// edit-distance table is computed for every reference.
func refRun(cfg Config, cands []know.Candidate) ([]know.Candidate, []Result, Report) {
	report := Report{Input: len(cands), Dropped: map[DropReason]int{}}
	results := make([]Result, len(cands))
	firsts := make([]string, len(cands))
	norms := make([]string, len(cands))
	lm, v := textproc.NewNgramLM(), textproc.NewVocab()
	co := textproc.NewCooccurrenceStats[string]()
	for i, c := range cands {
		firsts[i] = textproc.FirstSentence(c.Text)
		norms[i] = textproc.NormalizeSpace(c.Text)
		v.Add(firsts[i])
		lm.Train(v.Tokens(firsts[i]))
		co.Observe(norms[i], typeContext(c))
	}
	var ppls []float64
	for _, first := range firsts {
		if first != "" {
			ppls = append(ppls, lm.Perplexity(v.Tokens(first)))
		}
	}
	sort.Float64s(ppls)
	if len(ppls) > 0 {
		idx := int(cfg.PerplexityQuantile * float64(len(ppls)))
		if idx >= len(ppls) {
			idx = len(ppls) - 1
		}
		report.PerplexityThreshold = ppls[idx]
	}
	emb := embedding.New(cfg.EmbeddingDim)
	check := func(c know.Candidate, first, norm string) verdict {
		if first == "" {
			return verdict{reason: DropEmpty}
		}
		if len(textproc.Tokenize(first)) < 2 {
			return verdict{reason: DropShortContent}
		}
		if !looksComplete(first) {
			return verdict{reason: DropIncomplete}
		}
		for _, ref := range []string{c.Query, c.TypeA, c.TypeB, c.ContextText} {
			if ref != "" && textproc.NormalizedEditDistance(first, ref) <= cfg.MaxEditDistanceRatio {
				return verdict{reason: DropCopy}
			}
		}
		rel, tail, ok := relations.ParseGeneration(first)
		if !ok {
			return verdict{reason: DropNoRelation}
		}
		if report.PerplexityThreshold > 0 && lm.Perplexity(v.Tokens(first)) > report.PerplexityThreshold {
			return verdict{reason: DropPerplexity}
		}
		if co.IsGeneric(norm, cfg.GenericMinFreq, cfg.GenericMinEntropy) &&
			co.DistinctContexts(norm) >= cfg.GenericMinContexts {
			return verdict{reason: DropGeneric}
		}
		if c.ContextText != "" && emb.Similarity(first, c.ContextText) > cfg.MaxContextSimilarity {
			return verdict{reason: DropParaphrase}
		}
		return verdict{rel: rel, tail: tail}
	}
	seen := map[string]bool{}
	var kept []know.Candidate
	for i, c := range cands {
		v := check(c, firsts[i], norms[i])
		if v.reason == DropNone && seen[keyWith(c, firsts[i])] {
			v.reason = DropDuplicate
		}
		results[i] = Result{Candidate: c, Kept: v.reason == DropNone, Reason: v.reason}
		if v.reason != DropNone {
			report.Dropped[v.reason]++
			continue
		}
		c.Text, c.Relation, c.Tail = firsts[i], v.rel, v.tail
		seen[c.Key()] = true
		kept = append(kept, c)
		report.Kept++
	}
	return kept, results, report
}

// looksComplete is the completeness rule over Tokenize's strings: at
// least two tokens, no unfinished last token or trailing comma, and one
// token that is not a stopword.
func looksComplete(s string) bool {
	toks := textproc.Tokenize(s)
	if len(toks) < 2 || strings.HasSuffix(strings.TrimSpace(s), ",") {
		return false
	}
	switch toks[len(toks)-1] {
	case "and", "or", "but", "the", "a", "an", "of", "to", "for", "with",
		"in", "on", "at", "by", "because", "is", "are", "that", "which":
		return false
	}
	for _, t := range toks {
		if !textproc.IsStopword(t) {
			return true
		}
	}
	return false
}

// keyWith is c.Key() with c's text replaced.
func keyWith(c know.Candidate, text string) string {
	c.Text = text
	return c.Key()
}

// typeContext is the reference's co-occurrence context: the product
// types joined by '|'.
func typeContext(c know.Candidate) string { return c.TypeA + "|" + c.TypeB }

// TestFilterReferenceEquivalence: reusing each candidate's tokens and
// perplexity and bounding the copy check changes no verdict, no drop
// count and not one bit of the tuned threshold.
func TestFilterReferenceEquivalence(t *testing.T) {
	cands := buildCandidates(t, 3000)
	// Candidates the corpus may lack: blank, one word, a copy of each
	// reference, and a non-ASCII near-copy.
	cands = append(cands,
		know.Candidate{ID: 9001, Text: "  "},
		know.Candidate{ID: 9002, Text: "Camping."},
		know.Candidate{ID: 9003, Text: "camping tent", Query: "camping tents", TypeA: "tent"},
		know.Candidate{ID: 9004, Text: "Café crème brûlée set", ContextText: "café crème brulée set"},
	)
	for _, ratio := range []float64{DefaultConfig().MaxEditDistanceRatio, 0.6} {
		cfg := DefaultConfig()
		cfg.MaxEditDistanceRatio = ratio
		kept, results, report := New(cfg).Run(textproc.NewVocab(), cands)
		refKept, refResults, refReport := refRun(cfg, cands)
		if !reflect.DeepEqual(report, refReport) {
			t.Errorf("ratio %v: report %+v, reference %+v", ratio, report, refReport)
		}
		if !reflect.DeepEqual(results, refResults) {
			t.Errorf("ratio %v: per-candidate results differ from the reference", ratio)
		}
		if !reflect.DeepEqual(kept, refKept) {
			t.Errorf("ratio %v: kept candidates differ from the reference", ratio)
		}
		if report.Dropped[DropCopy] == 0 || report.Dropped[DropPerplexity] == 0 {
			t.Errorf("ratio %v: corpus exercises no copy or perplexity drop: %+v", ratio, report.Dropped)
		}
	}
}
