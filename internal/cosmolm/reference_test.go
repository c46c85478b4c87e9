package cosmolm

import (
	"cmp"
	"hash/fnv"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"cosmo/internal/catalog"
	"cosmo/internal/classifier"
	"cosmo/internal/instruction"
	"cosmo/internal/relations"
	"cosmo/internal/textproc"
)

// The previous implementation, kept as the oracle: an input was
// tokenized once per use behind a strings.NewReplacer, every feature was
// a concatenated string hashed through hash/fnv, and Generate summed
// into a map and sorted every candidate.

func refContextTokens(input string) []string {
	input = strings.NewReplacer("|", " ", ":", " ").Replace(input)
	toks := textproc.ContentTokens(input)
	for i, t := range toks {
		toks[i] = textproc.Stem(t)
	}
	return toks
}

func refFeatures(m *Model, task, input string) []int {
	var idx []int
	h := func(s string) int {
		hh := fnv.New32a()
		hh.Write([]byte(s))
		return int(hh.Sum32() % uint32(m.headDim))
	}
	capTokens := func(toks []string, n int) []string {
		if len(toks) > n {
			return toks[:n]
		}
		return toks
	}
	toks := refContextTokens(input)
	for i, t := range toks {
		idx = append(idx, h("w:"+t))
		if i+1 < len(toks) {
			idx = append(idx, h("b:"+t+"_"+toks[i+1]))
		}
	}
	if parts := strings.SplitN(input, "|", 2); len(parts) == 2 {
		left := capTokens(refContextTokens(parts[0]), 4)
		right := capTokens(refContextTokens(parts[1]), 6)
		for _, a := range left {
			for _, b := range right {
				idx = append(idx, h("x:"+a+"|"+b))
			}
		}
	}
	return append(idx, h("task:"+task))
}

// refPredict returns the probability and the tokens charged.
func refPredict(m *Model, task instruction.Task, input string) (float64, int) {
	charged := len(refContextTokens(input)) + 4
	head, ok := m.heads[task]
	if !ok {
		return 0.5, charged
	}
	return head.Prob(refFeatures(m, string(task), input)), charged
}

// refGenerate returns the generations and the tokens charged. The order
// is the total one; where it differs from the previous (score, tail)
// order the previous order was undefined.
func refGenerate(m *Model, context string, domain catalog.Category, rel relations.Relation, k int) ([]Generated, int) {
	toks := refContextTokens(context)
	scores := map[int]float64{}
	for _, tok := range toks {
		idf := math.Log(1 + float64(m.numDocs)/float64(1+m.docFreq[tok]))
		for _, p := range m.postings[tok] {
			scores[int(p.tail)] += idf * math.Log(1+float64(p.count))
		}
	}
	type cand struct {
		id int
		s  float64
	}
	var cands []cand
	for id, s := range scores {
		te := m.tails[id]
		if rel != "" && te.relation != rel {
			continue
		}
		if domain != "" {
			s += 0.5 * math.Log(1+float64(te.domains[domain]))
		}
		cands = append(cands, cand{id, s})
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		ta, tb := m.tails[a.id], m.tails[b.id]
		switch {
		case a.s != b.s:
			return a.s > b.s
		case ta.tail != tb.tail:
			return ta.tail < tb.tail
		case ta.relation != tb.relation:
			return ta.relation < tb.relation
		}
		return a.id < b.id
	})
	if k > len(cands) {
		k = len(cands)
	}
	out := make([]Generated, 0, max(k, 0))
	for i := 0; i < k; i++ {
		if i > 0 && cands[i].s < minScoreRatio*cands[0].s {
			break
		}
		te := m.tails[cands[i].id]
		out = append(out, Generated{
			Relation: te.relation, Tail: te.tail,
			Text:  relations.Verbalize(te.relation, te.tail),
			Score: cands[i].s,
		})
	}
	return out, len(toks) + 8
}

// probeInputs are head inputs with no, one and two '|', blank sides,
// stopword-only sides, more tokens than the cross-feature caps, upper
// case, apostrophes, hyphens and non-ASCII text.
var probeInputs = []string{
	"", "|", " | ", "the of | and",
	"search query: camping",
	"search query: camping | purchased: Acme Ultralight Air-Mattress for Two People's tents",
	"search query: winter camping gear for big families | purchased: Acme Tent | explanation: used for camping in the winter",
	"co-purchased products: Dog Leash and Walking Harness",
	"co-purchased products: A and B | explanation: they are used for walking the dogs",
	"search query: café | purchased: İstanbul crème brûlée set: ramekins",
	"a | b | c | d", "one two three four five six | seven eight nine ten eleven twelve thirteen",
}

func TestFeaturesMatchReference(t *testing.T) {
	m := getFixture(t).model
	tasks := []instruction.Task{
		instruction.TaskPlausibility, instruction.TaskTypicality,
		instruction.TaskCoPurchase, instruction.TaskSearchRelevance,
	}
	for _, input := range probeInputs {
		toks, split := appendEncoded(nil, input)
		if want := refContextTokens(input); len(toks) != len(want) || (len(want) > 0 && !reflect.DeepEqual(toks, want)) {
			t.Fatalf("encode(%q) = %q, reference %q", input, toks, want)
		}
		for _, task := range tasks {
			got := append(m.appendFeatures(nil, toks, split), m.taskFeature(task))
			if want := refFeatures(m, string(task), input); !reflect.DeepEqual(got, want) {
				t.Fatalf("features(%s, %q) = %v, reference %v", task, input, got, want)
			}
			m.ResetCost()
			_, p := m.Predict(task, input)
			want, charged := refPredict(m, task, input)
			if p != want || m.Cost().Tokens != charged {
				t.Fatalf("Predict(%s, %q) = %v charging %d tokens, reference %v charging %d",
					task, input, p, m.Cost().Tokens, want, charged)
			}
		}
	}
}

// behaviorContexts returns every nth search behavior of the fixture as a
// (context, domain) pair, plus contexts no behavior produces.
func behaviorContexts(f *fixture, nth int) (ctxs []string, domains []catalog.Category) {
	for i, e := range f.log.SearchBuys {
		if i%nth != 0 {
			continue
		}
		p, _ := f.cat.ByID(e.ProductID)
		ctxs = append(ctxs, SearchContext(e.Query, p.Title))
		domains = append(domains, p.Category)
	}
	for _, extra := range []string{"", "xyzzy frobnicate", "search query: camping", "co-purchased products: dog leash and dog bowl"} {
		ctxs = append(ctxs, extra)
		domains = append(domains, "")
	}
	return ctxs, domains
}

// noSuchDomain is a domain no tail of any fixture carries, so the prior
// table has no row for it.
const noSuchDomain catalog.Category = "no such domain"

// domainVariants returns the domain of context i and, for every fifth
// context, the disabled prior and a domain without a prior row. The
// extra cases run on every fifth context only, which keeps the tests'
// time under -race in bounds.
func domainVariants(d catalog.Category, i int) []catalog.Category {
	if i%5 != 0 {
		return []catalog.Category{d}
	}
	return []catalog.Category{d, "", noSuchDomain}
}

func TestGenerateMatchesReference(t *testing.T) {
	f := getFixture(t)
	if _, ok := f.model.prior[noSuchDomain]; ok {
		t.Fatalf("%q has a prior row", noSuchDomain)
	}
	m := f.model
	ctxs, domains := behaviorContexts(f, 5)
	nonEmpty := 0
	for i, ctx := range ctxs {
		for _, domain := range domainVariants(domains[i], i) {
			for _, rel := range []relations.Relation{"", "CAPABLE_OF", "USED_FOR"} {
				for _, k := range []int{0, 1, 2, 3, 50, 1 << 20} {
					m.ResetCost()
					got := m.Generate(ctx, domain, rel, k)
					want, charged := refGenerate(m, ctx, domain, rel, k)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("Generate(%q, %q, %q, %d) = %+v, reference %+v", ctx, domain, rel, k, got, want)
					}
					if c := m.Cost(); c.Calls != 1 || c.Tokens != charged {
						t.Fatalf("Generate(%q) charged %+v, reference %d tokens", ctx, c, charged)
					}
					nonEmpty += len(got)
				}
			}
		}
	}
	if nonEmpty == 0 {
		t.Fatal("no context generated anything")
	}
}

// TestGenerateScoredEquivalence: GenerateScored is Generate followed by
// the plausibility and typicality Predict per generation — bitwise the
// same floats in the same order, and the same calls, tokens and
// simulated time on the cost meter — on pipeline-trained models at two
// seeds and on a model that lacks one of the two heads, each with the
// behavior's domain, no domain and a domain without a prior row.
func TestGenerateScoredEquivalence(t *testing.T) {
	for _, f := range []*fixture{getFixture(t), buildFixtureAt(t, 7, 3000)} {
		noTypicality := *f
		noTypicality.model = train(nil, DefaultConfig())
		*noTypicality.model = Model{
			tails: f.model.tails, postings: f.model.postings, docFreq: f.model.docFreq,
			numDocs: f.model.numDocs, prior: f.model.prior, headDim: f.model.headDim,
			heads: map[instruction.Task]*classifier.LogReg{
				instruction.TaskPlausibility: f.model.heads[instruction.TaskPlausibility],
			},
		}
		for _, fx := range []*fixture{f, &noTypicality} {
			m := fx.model
			ctxs, domains := behaviorContexts(fx, 3)
			v := textproc.NewVocab()
			for _, ctx := range ctxs {
				AddInput(v, ctx)
			}
			scoredAny := false
			for i, ctx := range ctxs {
				for _, domain := range domainVariants(domains[i], i) {
					for _, k := range []int{0, 1, 2, 5} {
						m.ResetCost()
						got := m.GenerateScored(v, ctx, domain, k)
						gotCost := m.Cost()

						m.ResetCost()
						var want []Scored
						for _, g := range m.Generate(ctx, domain, "", k) {
							_, pp := m.Predict(instruction.TaskPlausibility, ctx+" | explanation: "+g.Text)
							_, tp := m.Predict(instruction.TaskTypicality, ctx+" | explanation: "+g.Text)
							want = append(want, Scored{Generated: g, Plausibility: pp, Typicality: tp})
						}
						if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
							t.Fatalf("GenerateScored(%q, %q, %d) = %+v, want %+v", ctx, domain, k, got, want)
						}
						if wantCost := m.Cost(); gotCost != wantCost {
							t.Fatalf("GenerateScored(%q) charged %+v, Generate + 2×Predict %+v", ctx, gotCost, wantCost)
						}
						for _, s := range got {
							scoredAny = true
							if _, ok := m.heads[instruction.TaskTypicality]; !ok && s.Typicality != 0.5 {
								t.Fatalf("missing typicality head read %v, want 0.5", s.Typicality)
							}
						}
					}
				}
			}
			if !scoredAny {
				t.Fatal("no context generated anything")
			}
		}
	}
}

// tieModel is a hand-built model where one token reaches, with the same
// weight, the same tail text under two relations and a third tail that
// sorts after it: three candidates with equal scores.
func tieModel() *Model {
	m := &Model{
		tails: []tailEntry{
			{relation: "USED_FOR", tail: "walking the dog", count: 1, domains: map[catalog.Category]int{}},
			{relation: "CAPABLE_OF", tail: "walking the dog", count: 1, domains: map[catalog.Category]int{}},
			{relation: "USED_FOR", tail: "hiking", count: 1, domains: map[catalog.Category]int{}},
		},
		numDocs: 3,
		headDim: 16,
		heads:   map[instruction.Task]*classifier.LogReg{},
	}
	v := textproc.NewVocab()
	v.Add("leash") // the one stem, ID 0
	m.buildPostings(v, []map[int]int{{0: 1, 1: 1, 2: 1}}, []int{3})
	m.prior = buildPrior(m.tails)
	return m
}

// refRank is the previous rank, which evaluated every comparison and
// read both tails on every call.
func refRank(m *Model, a, b cand) int {
	ta, tb := &m.tails[a.id], &m.tails[b.id]
	return cmp.Or(
		cmp.Compare(b.s, a.s),
		cmp.Compare(ta.tail, tb.tail),
		cmp.Compare(ta.relation, tb.relation),
		cmp.Compare(a.id, b.id),
	)
}

// TestRankMatchesReference compares rank with refRank on every ordered
// pair of candidates over the tie model (one tail text under two
// relations) and over fixture tails whose scores come from a set of
// three, so most pairs tie on the score.
func TestRankMatchesReference(t *testing.T) {
	fm := getFixture(t).model
	var fixtureCands []cand
	for id := range fm.tails {
		fixtureCands = append(fixtureCands, cand{int32(id), []float64{1.5, 0.25, 1.5}[id%3]})
	}
	tie := tieModel()
	for _, tc := range []struct {
		m     *Model
		cands []cand
	}{
		{tie, []cand{{0, 1}, {1, 1}, {2, 1}, {0, 2}, {1, 0.5}}},
		{fm, fixtureCands},
	} {
		ties := 0
		for _, a := range tc.cands {
			for _, b := range tc.cands {
				if got, want := tc.m.rank(a, b), refRank(tc.m, a, b); got != want {
					t.Fatalf("rank(%+v, %+v) = %d, reference %d", a, b, got, want)
				}
				if a.s == b.s && a.id != b.id {
					ties++
				}
			}
		}
		if ties == 0 {
			t.Fatal("no pair ties on the score")
		}
	}
}

// TestGenerateTieOrder: equal scores and equal tail text fall back to
// the relation, then the tail ID, so the answer never depends on map
// iteration or on an unstable sort.
func TestGenerateTieOrder(t *testing.T) {
	want := []Generated{
		{Relation: "USED_FOR", Tail: "hiking"},
		{Relation: "CAPABLE_OF", Tail: "walking the dog"}, // tail ID 1 before 0: the relation decides
		{Relation: "USED_FOR", Tail: "walking the dog"},
	}
	for run := 0; run < 50; run++ {
		for _, k := range []int{3, 2, 1} {
			gens := tieModel().Generate("leash", "", "", k)
			if len(gens) != k {
				t.Fatalf("run %d: %d generations, want %d", run, len(gens), k)
			}
			for i, g := range gens {
				if g.Score != gens[0].Score {
					t.Fatalf("scores differ, so the tie does not occur: %+v", gens)
				}
				if g.Relation != want[i].Relation || g.Tail != want[i].Tail {
					t.Fatalf("run %d, k=%d: generation %d is %s %q, want %s %q",
						run, k, i, g.Relation, g.Tail, want[i].Relation, want[i].Tail)
				}
			}
		}
	}
}

// TestGenerateScoredAllocBudget: the result and nothing else. The
// context is read from the vocabulary and each generation's text was
// made at Train; a stem a suffix rule rewrites would cost one more, and
// this context's explanations have none. No per-call maps, sorts or
// feature strings. The budget is for this context at k = 2.
func TestGenerateScoredAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	f := getFixture(t)
	p := f.cat.OfType("air mattress")[0]
	ctx := SearchContext("camping", p.Title)
	v := textproc.NewVocab()
	AddInput(v, ctx)
	if len(f.model.GenerateScored(v, ctx, p.Category, 2)) != 2 {
		t.Fatal("context does not yield two generations")
	}
	const budget = 1
	n := testing.AllocsPerRun(200, func() { f.model.GenerateScored(v, ctx, p.Category, 2) })
	t.Logf("GenerateScored: %v allocs", n)
	if n > budget {
		t.Errorf("GenerateScored: %v allocs, budget %d", n, budget)
	}
}

// TestNumFeaturesExact: a head row sized by numFeatures is filled to
// exactly its length, so Train allocates each row once.
func TestNumFeaturesExact(t *testing.T) {
	m := getFixture(t).model
	for _, input := range probeInputs {
		toks, split := appendEncoded(nil, input)
		if got, want := numFeatures(len(toks), split), len(m.appendFeatures(nil, toks, split)); got != want {
			t.Errorf("numFeatures for %q (%d tokens, split %d) = %d, appendFeatures appends %d", input, len(toks), split, got, want)
		}
	}
}
