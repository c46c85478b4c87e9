// Package relevance reproduces the search-relevance experiment of §4.1:
// the four-class ESCI task (Exact / Substitute / Complement / Irrelevant)
// over query-product pairs, solved by bi-encoder and cross-encoder
// architectures with and without COSMO intention knowledge (Figure 6),
// evaluated with Macro/Micro F1 (Table 6, Figure 7) on synthetic
// ESCI-style datasets whose per-locale sizes follow Table 5.
package relevance

import (
	"fmt"
	"math/rand"

	"cosmo/internal/behavior"
	"cosmo/internal/catalog"
)

// Label is the four-class ESCI relevance label.
type Label int

// The ESCI classes.
const (
	Exact Label = iota
	Substitute
	Complement
	Irrelevant
	NumClasses
)

// String returns the class name.
func (l Label) String() string {
	switch l {
	case Exact:
		return "Exact"
	case Substitute:
		return "Substitute"
	case Complement:
		return "Complement"
	case Irrelevant:
		return "Irrelevant"
	default:
		return fmt.Sprintf("Label(%d)", int(l))
	}
}

// Example is one labeled query-product pair, optionally augmented with
// generated intention knowledge G (the paper's [Q, P, G] input).
type Example struct {
	Query     string
	Product   string // concatenated title + side information
	Knowledge string // generated commonsense knowledge, "" when absent
	Label     Label
}

// KnowledgeFn generates the knowledge span for a query-product pair.
// The benchmark harness wires COSMO-LM here; tests may use the oracle.
type KnowledgeFn func(query string, p catalog.Product) string

// Locale describes one market's dataset configuration (paper Table 5).
type Locale struct {
	Name string
	// TrainPairs and TestPairs scale with the paper's Table 5 rows.
	TrainPairs int
	TestPairs  int
	Seed       int64
}

// Locales returns the five evaluation locales with sizes proportional
// to paper Table 5 divided by scale (pairs = paperPairs / scale).
func Locales(scale int) []Locale {
	if scale < 1 {
		scale = 1
	}
	mk := func(name string, train, test int, seed int64) Locale {
		t := train / scale
		if t < 200 {
			t = 200
		}
		e := test / scale
		if e < 100 {
			e = 100
		}
		return Locale{Name: name, TrainPairs: t, TestPairs: e, Seed: seed}
	}
	return []Locale{
		mk("KDD Cup", 1393063, 425762, 101),
		mk("US", 1148528, 383695, 102),
		mk("CA", 220114, 72500, 103),
		mk("UK", 462560, 155138, 104),
		mk("IN", 1480116, 495078, 105),
	}
}

// Dataset is a train/test split for one locale.
type Dataset struct {
	Locale string
	Train  []Example
	Test   []Example
}

// classMix is the ESCI class imbalance (Exact dominates, per Table 5's
// "# Exact Pairs" being ~90% of pairs).
var classMix = []struct {
	label Label
	p     float64
}{
	{Exact, 0.60},
	{Substitute, 0.20},
	{Complement, 0.08},
	{Irrelevant, 0.12},
}

// Generator builds ESCI-style datasets over the synthetic catalog.
type Generator struct {
	cat *catalog.Catalog
	// intentIndex maps each intent to the product types that carry it.
	intentIndex map[catalog.Intent][]string
	know        KnowledgeFn
}

// NewGenerator builds a generator; know may be nil (no knowledge column).
func NewGenerator(cat *catalog.Catalog, know KnowledgeFn) *Generator {
	idx := map[catalog.Intent][]string{}
	for _, tn := range cat.Types() {
		pt, _ := cat.Type(tn)
		for _, in := range pt.Intents {
			idx[in] = append(idx[in], tn)
		}
	}
	return &Generator{cat: cat, intentIndex: idx, know: know}
}

// Generate produces the dataset for one locale.
func (g *Generator) Generate(loc Locale) Dataset {
	rng := rand.New(rand.NewSource(loc.Seed))
	total := loc.TrainPairs + loc.TestPairs
	examples := make([]Example, 0, total)
	for len(examples) < total {
		ex, ok := g.example(rng)
		if ok {
			examples = append(examples, ex)
		}
	}
	rng.Shuffle(len(examples), func(i, j int) { examples[i], examples[j] = examples[j], examples[i] })
	return Dataset{
		Locale: loc.Name,
		Train:  examples[:loc.TrainPairs],
		Test:   examples[loc.TrainPairs:],
	}
}

func (g *Generator) example(rng *rand.Rand) (Example, bool) {
	label := g.drawLabel(rng)
	types := g.cat.Types()
	queryType := types[rng.Intn(len(types))]
	qt, _ := g.cat.Type(queryType)
	if len(qt.Intents) == 0 {
		return Example{}, false
	}
	intent := qt.Intents[rng.Intn(len(qt.Intents))]
	query := g.makeQuery(rng, queryType, intent)

	var productType string
	switch label {
	case Exact:
		productType = queryType
	case Substitute:
		// A different type serving the same intent.
		shared := g.intentIndex[intent]
		var alts []string
		for _, tn := range shared {
			if tn != queryType {
				alts = append(alts, tn)
			}
		}
		if len(alts) == 0 {
			return Example{}, false
		}
		productType = alts[rng.Intn(len(alts))]
	case Complement:
		if len(qt.Complements) == 0 {
			return Example{}, false
		}
		productType = qt.Complements[rng.Intn(len(qt.Complements))]
		if productType == queryType {
			return Example{}, false
		}
	default: // Irrelevant
		for tries := 0; tries < 20; tries++ {
			cand := types[rng.Intn(len(types))]
			if cand == queryType || g.cat.AreComplements(queryType, cand) {
				continue
			}
			a := g.cat.OfType(queryType)[0]
			b := g.cat.OfType(cand)[0]
			if len(g.cat.AppendSharedIntents(nil, a, b)) > 0 {
				continue
			}
			productType = cand
			break
		}
		if productType == "" {
			return Example{}, false
		}
	}
	ps := g.cat.OfType(productType)
	p := ps[rng.Intn(len(ps))]
	ex := Example{
		Query:   query,
		Product: p.Title,
		Label:   label,
	}
	if g.know != nil {
		ex.Knowledge = g.know(query, p)
	}
	return ex, true
}

// makeQuery emits the query text. Half the time the query leads with the
// intent's broad form ("camping air mattress"), planting the semantic
// gap that intention knowledge closes: the intent word never appears in
// product titles.
func (g *Generator) makeQuery(rng *rand.Rand, queryType string, intent catalog.Intent) string {
	switch rng.Intn(4) {
	case 0:
		return behavior.BroadQuery(intent) + " " + queryType
	case 1:
		return behavior.BroadQuery(intent)
	default:
		return queryType
	}
}

func (g *Generator) drawLabel(rng *rand.Rand) Label {
	x := rng.Float64()
	for _, cm := range classMix {
		if x < cm.p {
			return cm.label
		}
		x -= cm.p
	}
	return Irrelevant
}

// OracleKnowledge returns a KnowledgeFn that reads the catalog's ground
// truth: the intents shared by the query's referenced type and the
// product, plus complement links. It bounds what a perfect COSMO-LM
// could provide and is used by unit tests; benchmarks wire the real
// COSMO-LM instead.
func OracleKnowledge(cat *catalog.Catalog) KnowledgeFn {
	return func(query string, p catalog.Product) string {
		// Identify the query's type by longest type-name containment.
		var qType string
		for _, tn := range cat.Types() {
			if containsType(query, tn) && len(tn) > len(qType) {
				qType = tn
			}
		}
		var spans []string
		if qType != "" {
			a := cat.OfType(qType)[0]
			for _, in := range cat.AppendSharedIntents(nil, a, p) {
				spans = append(spans, in.Surface())
			}
			if cat.AreComplements(qType, p.Type) {
				spans = append(spans, "used with "+qType)
			}
		}
		// Product-side intents matching the query's broad word also close
		// the gap for intent-only queries.
		for _, in := range cat.IntentsOf(p) {
			if containsType(in.Tail, firstWord(query)) {
				spans = append(spans, in.Surface())
			}
		}
		return joinSpans(spans)
	}
}

func containsType(s, sub string) bool {
	if sub == "" {
		return false
	}
	return len(s) >= len(sub) && (s == sub || indexFold(s, sub) >= 0)
}

func indexFold(s, sub string) int {
	// Simple case-sensitive contains on lowercase inputs; titles are
	// mixed case so lower them.
	return index(lower(s), lower(sub))
}

// Stats reports dataset statistics in the shape of paper Table 5.
type Stats struct {
	Locale         string
	TrainPairs     int
	TestPairs      int
	ExactPairs     int
	UniqueQueries  int
	UniqueProducts int
}

// ComputeStats summarizes a dataset.
func ComputeStats(ds Dataset) Stats {
	s := Stats{Locale: ds.Locale, TrainPairs: len(ds.Train), TestPairs: len(ds.Test)}
	qs := map[string]bool{}
	ps := map[string]bool{}
	for _, split := range [][]Example{ds.Train, ds.Test} {
		for _, ex := range split {
			if ex.Label == Exact {
				s.ExactPairs++
			}
			qs[ex.Query] = true
			ps[ex.Product] = true
		}
	}
	s.UniqueQueries = len(qs)
	s.UniqueProducts = len(ps)
	return s
}
