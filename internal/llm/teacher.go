// Package llm simulates the teacher large language models (OPT-30b /
// OPT-175b in the paper) that COSMO distills knowledge from.
//
// The simulator reproduces the teacher's externally visible behavior:
// given a QA-style prompt verbalizing a user behavior (Figure 3 of the
// paper), it emits a ranked list of knowledge candidates whose
// distribution mixes the generation modes the paper reports —
// faithful/typical knowledge, one-sided intentions for co-buys (the
// cause of the low co-buy typicality in Table 4), generic intentions
// ("customers bought them because they like them"), paraphrases of the
// behavior context, incomplete truncations, and hallucinations.
// Every candidate carries hidden ground-truth labels consumed only by
// the annotation oracle and evaluation.
//
// A cost model accounts for simulated inference expense so that the
// paper's efficiency claim (COSMO-LM ≫ cheaper than the teacher) is
// measurable.
package llm

import (
	"math/rand"
	"strings"
	"sync"

	"cosmo/internal/catalog"
	"cosmo/internal/textproc"
)

// NoiseMode identifies the generation mode of a candidate (ground truth,
// never visible to the pipeline).
type NoiseMode string

// Generation modes.
const (
	ModeTypical       NoiseMode = "typical"
	ModeOneSided      NoiseMode = "one-sided"
	ModeGeneric       NoiseMode = "generic"
	ModeParaphrase    NoiseMode = "paraphrase"
	ModeIncomplete    NoiseMode = "incomplete"
	ModeHallucination NoiseMode = "hallucination"
)

// Truth carries the five ground-truth judgments matching the paper's
// 5-question annotation decomposition (§3.3.2).
type Truth struct {
	Complete    bool
	Relevant    bool
	Informative bool
	Plausible   bool
	Typical     bool
	Mode        NoiseMode
}

// Candidate is one generated knowledge string plus hidden ground truth.
type Candidate struct {
	Text  string
	Truth Truth
}

// ModelSize selects the simulated teacher scale.
type ModelSize string

// Teacher model scales from the paper.
const (
	OPT30B  ModelSize = "opt-30b"
	OPT175B ModelSize = "opt-175b"
)

// Config tunes the teacher's generation-mode mixture.
type Config struct {
	Size ModelSize
	Seed int64
	// TypicalRate is the probability a candidate is faithful/typical.
	TypicalRate float64
	// OneSidedRate applies to co-buy behaviors only: probability the
	// model explains just one product of the pair.
	OneSidedRate float64
	// GenericRate, ParaphraseRate, IncompleteRate: remaining noise modes;
	// leftovers become hallucinations.
	GenericRate    float64
	ParaphraseRate float64
	IncompleteRate float64
}

// DefaultConfig returns mode rates calibrated so that annotated ratios
// land near the paper's Table 4 (search-buy typicality ≈ 35%, co-buy
// notably lower) after coarse filtering. The 175b teacher is both more
// faithful (higher typical rate, less generic filler) and ~6x more
// expensive per token, matching the scaling behaviour the paper relied
// on when choosing generation models.
func DefaultConfig(size ModelSize) Config {
	cfg := Config{
		Size:           size,
		Seed:           11,
		TypicalRate:    0.40,
		OneSidedRate:   0.35,
		GenericRate:    0.20,
		ParaphraseRate: 0.15,
		IncompleteRate: 0.12,
	}
	if size == OPT175B {
		cfg.TypicalRate = 0.48
		cfg.GenericRate = 0.15
		cfg.IncompleteRate = 0.08
	}
	return cfg
}

// Teacher is the simulated large language model.
type Teacher struct {
	cat *catalog.Catalog
	cfg Config

	mu  sync.Mutex
	rng *rand.Rand

	cost CostMeter
}

// NewTeacher builds a teacher over the catalog.
func NewTeacher(cat *catalog.Catalog, cfg Config) *Teacher {
	return &Teacher{
		cat: cat,
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Cost returns a snapshot of accumulated simulated inference cost.
func (t *Teacher) Cost() CostSnapshot { return t.cost.Snapshot() }

// DeriveSeed mixes the master seed with a behavior index via splitmix64
// finalization, producing an independent, well-distributed stream seed
// per item. Identical (seed, index) pairs always derive the same stream,
// which is what makes generation order-independent: each behavior's
// candidates depend only on its own index, never on how many draws other
// behaviors consumed from a shared generator.
func DeriveSeed(master int64, index uint64) int64 {
	z := uint64(master) + 0x9e3779b97f4a7c15*(index+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// CoBuyContext is the verbalized co-buy behavior of a and b: both titles.
func CoBuyContext(a, b catalog.Product) string { return a.Title + " and " + b.Title }

// SearchBuyContext is the verbalized search-buy behavior: the query and
// the purchased product's title.
func SearchBuyContext(query string, p catalog.Product) string { return query + " " + p.Title }

// GenerateCoBuyAt is the order-independent form of GenerateCoBuy: it
// appends to dst the candidates for (index, a, b, k), a pure function of
// the teacher config and index, so calls may run concurrently and in any
// order. context is CoBuyContext(a, b). Callers must give each behavior
// a distinct index (disjoint across behavior types) for the streams to
// be independent.
func (t *Teacher) GenerateCoBuyAt(dst []Candidate, index uint64, a, b catalog.Product, context string, k int) []Candidate {
	rng := t.rngAt(index)
	defer streams.Put(rng)
	return t.generateCoBuy(dst, rng, a, b, context, k)
}

// GenerateSearchBuyAt is the order-independent form of GenerateSearchBuy;
// context is SearchBuyContext(query, p).
func (t *Teacher) GenerateSearchBuyAt(dst []Candidate, index uint64, p catalog.Product, context string, k int) []Candidate {
	rng := t.rngAt(index)
	defer streams.Put(rng)
	return t.generateSearchBuy(dst, rng, p, context, k)
}

var genericPool = []string{
	"customers bought them together because they like them",
	"used for the same reason",
	"they are both good products",
	"customers often buy them at the same time",
	"used with other products",
	"because it is popular",
	"bought as a gift",
}

// GenerateCoBuy emits k candidates explaining why products a and b are
// co-purchased. It draws from the teacher's shared sequential stream;
// concurrent callers serialize on it. Parallel pipelines use
// GenerateCoBuyAt instead.
func (t *Teacher) GenerateCoBuy(a, b catalog.Product, k int) []Candidate {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.generateCoBuy(make([]Candidate, 0, k), t.rng, a, b, CoBuyContext(a, b), k)
}

// generateCoBuy is the generation body, appending to dst; all randomness
// flows from rng.
func (t *Teacher) generateCoBuy(dst []Candidate, rng *rand.Rand, a, b catalog.Product, context string, k int) []Candidate {
	var buf [8]catalog.Intent
	shared := t.cat.AppendSharedIntents(buf[:0], a, b)
	for i := 0; i < k; i++ {
		r := rng.Float64()
		var c Candidate
		switch {
		case r < t.cfg.TypicalRate && len(shared) > 0:
			in := shared[rng.Intn(len(shared))]
			c = Candidate{Text: in.Surface(), Truth: Truth{
				Complete: true, Relevant: true, Informative: true,
				Plausible: true, Typical: true, Mode: ModeTypical,
			}}
		case r < t.cfg.TypicalRate+t.cfg.OneSidedRate:
			// Intention of one product only — plausible, not typical for
			// the pair (the paper's dominant co-buy failure mode).
			p := a
			if rng.Intn(2) == 1 {
				p = b
			}
			ins := t.cat.IntentsOf(p)
			if len(ins) == 0 {
				c = t.genericCandidate(rng)
				break
			}
			in := ins[rng.Intn(len(ins))]
			typical := false
			// If the one-sided intent happens to be shared it is typical.
			for _, s := range shared {
				if s == in {
					typical = true
				}
			}
			c = Candidate{Text: in.Surface(), Truth: Truth{
				Complete: true, Relevant: true, Informative: true,
				Plausible: true, Typical: typical, Mode: ModeOneSided,
			}}
		default:
			c = t.noiseCandidate(rng, context)
		}
		dst = append(dst, c)
		t.cost.Charge(t.cfg.Size, textproc.CountTokens(c.Text))
	}
	return dst
}

// GenerateSearchBuy emits k candidates explaining why query led to the
// purchase of p, drawing from the shared sequential stream. Parallel
// pipelines use GenerateSearchBuyAt instead.
func (t *Teacher) GenerateSearchBuy(query string, p catalog.Product, k int) []Candidate {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.generateSearchBuy(make([]Candidate, 0, k), t.rng, p, SearchBuyContext(query, p), k)
}

// generateSearchBuy is the generation body, appending to dst; all
// randomness flows from rng.
func (t *Teacher) generateSearchBuy(dst []Candidate, rng *rand.Rand, p catalog.Product, context string, k int) []Candidate {
	ins := t.cat.IntentsOf(p)
	for i := 0; i < k; i++ {
		r := rng.Float64()
		var c Candidate
		switch {
		case r < t.cfg.TypicalRate+t.cfg.OneSidedRate && len(ins) > 0:
			// Search-buy has no one-sided failure mode: the product's own
			// intents are the right explanations, so typicality is higher
			// (paper Table 4).
			in := ins[rng.Intn(len(ins))]
			c = Candidate{Text: in.Surface(), Truth: Truth{
				Complete: true, Relevant: true, Informative: true,
				Plausible: true, Typical: true, Mode: ModeTypical,
			}}
		default:
			c = t.noiseCandidate(rng, context)
		}
		dst = append(dst, c)
		t.cost.Charge(t.cfg.Size, textproc.CountTokens(c.Text))
	}
	return dst
}

// noiseCandidate picks among generic / paraphrase / incomplete /
// hallucination modes.
func (t *Teacher) noiseCandidate(rng *rand.Rand, context string) Candidate {
	total := t.cfg.GenericRate + t.cfg.ParaphraseRate + t.cfg.IncompleteRate
	r := rng.Float64() * (total + 0.08) // leftover → hallucination
	switch {
	case r < t.cfg.GenericRate:
		return t.genericCandidate(rng)
	case r < t.cfg.GenericRate+t.cfg.ParaphraseRate:
		return Candidate{Text: paraphrase(rng, context), Truth: Truth{
			Complete: true, Relevant: true, Informative: false,
			Plausible: true, Typical: false, Mode: ModeParaphrase,
		}}
	case r < total:
		// Truncate a plausible-looking generation mid-phrase.
		full := t.hallucinatedText(rng)
		words := strings.Fields(full)
		n := 2
		if len(words) > 3 {
			n = 2 + rng.Intn(len(words)-3)
		}
		return Candidate{Text: strings.Join(words[:n], " "), Truth: Truth{
			Complete: false, Relevant: false, Informative: false,
			Plausible: false, Typical: false, Mode: ModeIncomplete,
		}}
	default:
		return Candidate{Text: t.hallucinatedText(rng), Truth: Truth{
			Complete: true, Relevant: false, Informative: true,
			Plausible: false, Typical: false, Mode: ModeHallucination,
		}}
	}
}

func (t *Teacher) genericCandidate(rng *rand.Rand) Candidate {
	return Candidate{
		Text: genericPool[rng.Intn(len(genericPool))],
		Truth: Truth{
			Complete: true, Relevant: true, Informative: false,
			Plausible: true, Typical: false, Mode: ModeGeneric,
		},
	}
}

// hallucinatedText returns a fluent but wrong intention: the surface of
// an intent from a random unrelated product type.
func (t *Teacher) hallucinatedText(rng *rand.Rand) string {
	types := t.cat.Types()
	for tries := 0; tries < 10; tries++ {
		pt, _ := t.cat.Type(types[rng.Intn(len(types))])
		if len(pt.Intents) > 0 {
			in := pt.Intents[rng.Intn(len(pt.Intents))]
			return in.Surface()
		}
	}
	return "used for general purposes"
}

// paraphrase restates the behavior context with light syntactic
// transformation — the failure mode the similarity filter removes.
func paraphrase(rng *rand.Rand, context string) string {
	toks := textproc.Tokenize(context)
	if len(toks) > 6 {
		toks = toks[:6]
	}
	switch rng.Intn(3) {
	case 0:
		return "a " + strings.Join(toks, " ")
	case 1:
		return "is a " + strings.Join(toks, " ")
	default:
		return "used with " + strings.Join(toks, " ")
	}
}
