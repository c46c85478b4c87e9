// Package behavior simulates the massive user-behavior logs that COSMO
// mines. It is the substitute for Amazon's production behavior data: a
// seeded generative model over the synthetic catalog that emits the two
// behavior types the paper uses — co-buy product pairs and search-buy
// query–product pairs — plus the session logs used by the
// session-based-recommendation evaluation.
//
// Crucially, the simulator records ground truth: every intentional
// behavior carries the latent intent that caused it, and noise behaviors
// are marked as such. The annotation oracle and the pipeline-precision
// tests consume this ground truth.
package behavior

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"cosmo/internal/catalog"
	"cosmo/internal/textproc"
)

// CoBuyPair is one co-purchase edge (p1, p2) with its event count.
type CoBuyPair struct {
	A, B  string // product IDs, A < B
	Count int
	// Intentional marks ground truth: the pair was generated because the
	// two products serve a shared latent intent (vs. random noise).
	Intentional bool
	// Intent is the shared latent intent for intentional pairs.
	Intent catalog.Intent
}

// SearchBuyPair is one query–product purchase edge with engagement stats.
type SearchBuyPair struct {
	Query     string
	ProductID string
	Clicks    int
	Purchases int
	// Broad marks ground truth: the query is a broad/ambiguous intent
	// query rather than a specific product query.
	Broad bool
	// Intent is the latent intent behind the search, when intentional.
	Intent catalog.Intent
	// Intentional is false for noise pairs (random query-product).
	Intentional bool
}

// Session is one shopping session: a chronological sequence of
// (query, item) interactions sharing a latent intent, ending in purchase.
type Session struct {
	Category catalog.Category
	Items    []string // product IDs in click order; last is the purchase
	Queries  []string // query issued before each item interaction
	Intent   catalog.Intent
}

// Log is the full simulated behavior log.
type Log struct {
	Catalog    *catalog.Catalog
	CoBuys     []CoBuyPair
	SearchBuys []SearchBuyPair

	coBuyDegree map[string]int // product ID -> degree in co-buy graph
	queryDegree map[string]int // query -> degree in query-product graph
	prodQDegree map[string]int // product ID -> degree in query-product graph
}

// Config controls the simulation.
type Config struct {
	Seed int64
	// CoBuyEvents is the number of co-purchase events to simulate.
	CoBuyEvents int
	// SearchEvents is the number of search-buy events to simulate.
	SearchEvents int
	// NoiseRate is the fraction of behaviors that are random
	// (non-intentional), the paper's "noisy behaviors".
	NoiseRate float64
	// BroadQueryRate is the fraction of intentional searches that use a
	// broad intent query instead of a specific product query.
	BroadQueryRate float64
}

// DefaultConfig returns a laptop-scale configuration.
func DefaultConfig() Config {
	return Config{
		Seed:           7,
		CoBuyEvents:    20000,
		SearchEvents:   20000,
		NoiseRate:      0.25,
		BroadQueryRate: 0.4,
	}
}

// Simulate runs the behavior simulation over the catalog.
func Simulate(c *catalog.Catalog, cfg Config) *Log {
	if cfg.CoBuyEvents <= 0 {
		cfg.CoBuyEvents = 1000
	}
	if cfg.SearchEvents <= 0 {
		cfg.SearchEvents = 1000
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	log := &Log{
		Catalog:     c,
		coBuyDegree: map[string]int{},
		queryDegree: map[string]int{},
		prodQDegree: map[string]int{},
	}
	log.simulateCoBuys(rng, cfg)
	log.simulateSearchBuys(rng, cfg)
	return log
}

// popularity returns the summed popularity of ps, the total pickProduct
// draws against. A simulation sums the whole catalog once and reuses it.
func popularity(ps []catalog.Product) float64 {
	// By index: ranging by value would copy a whole Product per step.
	total := 0.0
	for i := range ps {
		total += ps[i].Popularity
	}
	return total
}

// pickProduct samples a product of ps with probability proportional to
// its popularity; total is popularity(ps).
func pickProduct(rng *rand.Rand, ps []catalog.Product, total float64) catalog.Product {
	x := rng.Float64() * total
	for i := range ps {
		x -= ps[i].Popularity
		if x <= 0 {
			return ps[i]
		}
	}
	return ps[len(ps)-1]
}

func (l *Log) simulateCoBuys(rng *rand.Rand, cfg Config) {
	c := l.Catalog
	all := c.Products()
	allPop := popularity(all)
	type key struct{ a, b string }
	at := map[key]int{} // pair -> its index in l.CoBuys
	for i := 0; i < cfg.CoBuyEvents; i++ {
		a := pickProduct(rng, all, allPop)
		var b catalog.Product
		intentional := rng.Float64() >= cfg.NoiseRate
		var intent catalog.Intent
		if intentional {
			pt, _ := c.Type(a.Type)
			if len(pt.Complements) == 0 {
				intentional = false
			} else {
				comp := pt.Complements[rng.Intn(len(pt.Complements))]
				comps := c.OfType(comp)
				b = pickProduct(rng, comps, popularity(comps))
				var buf [8]catalog.Intent
				if shared := c.AppendSharedIntents(buf[:0], a, b); len(shared) > 0 {
					intent = shared[rng.Intn(len(shared))]
				} else {
					// Complements without a literal shared intent use the
					// USED_WITH reason from either side.
					intent = usedWithIntent(c, a, b)
				}
			}
		}
		if !intentional {
			b = pickProduct(rng, all, allPop)
			for b.ID == a.ID {
				b = pickProduct(rng, all, allPop)
			}
		}
		ka, kb := a.ID, b.ID
		if ka > kb {
			ka, kb = kb, ka
		}
		k := key{ka, kb}
		if j, ok := at[k]; ok {
			e := &l.CoBuys[j]
			e.Count++
			// An edge observed both ways keeps its intentional label if
			// any observation was intentional.
			if intentional && !e.Intentional {
				e.Intentional = true
				e.Intent = intent
			}
		} else {
			at[k] = len(l.CoBuys)
			l.CoBuys = append(l.CoBuys, CoBuyPair{A: ka, B: kb, Count: 1, Intentional: intentional, Intent: intent})
		}
	}
	slices.SortFunc(l.CoBuys, func(x, y CoBuyPair) int {
		return cmp.Or(strings.Compare(x.A, y.A), strings.Compare(x.B, y.B))
	})
	for i := range l.CoBuys {
		e := &l.CoBuys[i]
		l.coBuyDegree[e.A]++
		l.coBuyDegree[e.B]++
	}
}

func usedWithIntent(c *catalog.Catalog, a, b catalog.Product) catalog.Intent {
	for _, in := range c.IntentsOf(a) {
		if strings.Contains(in.Tail, b.Type) {
			return in
		}
	}
	for _, in := range c.IntentsOf(b) {
		if strings.Contains(in.Tail, a.Type) {
			return in
		}
	}
	// Fall back to the first intent of a.
	ins := c.IntentsOf(a)
	if len(ins) > 0 {
		return ins[0]
	}
	return catalog.Intent{}
}

// BroadQuery derives the broad/ambiguous query form of an intent, e.g.
// "camping in the mountains" → "camping". The paper samples broad queries
// because generating knowledge for them is most valuable. It reads the
// tail's words in place.
func BroadQuery(in catalog.Intent) string {
	first, rest := textproc.CutField(in.Tail)
	for w := first; w != ""; w, rest = textproc.CutField(rest) {
		switch w {
		case "a", "an", "the", "in", "on", "at", "of", "for", "to", "with", "before", "while":
			continue
		}
		return w
	}
	if first != "" {
		return first
	}
	return in.Tail
}

// SpecificQuery derives a specific query for a product: its type name,
// optionally qualified by the broad intent ("camping air mattress").
func SpecificQuery(p catalog.Product, in catalog.Intent, qualified bool) string {
	if qualified {
		return BroadQuery(in) + " " + p.Type
	}
	return p.Type
}

func (l *Log) simulateSearchBuys(rng *rand.Rand, cfg Config) {
	c := l.Catalog
	all := c.Products()
	allPop := popularity(all)
	type key struct{ q, p string }
	at := map[key]int{} // pair -> its index in l.SearchBuys
	for i := 0; i < cfg.SearchEvents; i++ {
		p := pickProduct(rng, all, allPop)
		intents := c.IntentsOf(p)
		intentional := rng.Float64() >= cfg.NoiseRate && len(intents) > 0
		var q string
		var intent catalog.Intent
		broad := false
		if intentional {
			intent = intents[rng.Intn(len(intents))]
			switch {
			case rng.Float64() < cfg.BroadQueryRate:
				q = BroadQuery(intent)
				broad = true
			case rng.Float64() < 0.5:
				q = SpecificQuery(p, intent, true)
			default:
				q = SpecificQuery(p, intent, false)
			}
		} else {
			// Noise: a query from a random other product's vocabulary.
			o := all[rng.Intn(len(all))]
			q = o.Type
		}
		k := key{q, p.ID}
		clicks := 1 + rng.Intn(3)
		purchased := 0
		if rng.Float64() < 0.6 || intentional {
			purchased = 1
		}
		if j, ok := at[k]; ok {
			e := &l.SearchBuys[j]
			e.Clicks += clicks
			e.Purchases += purchased
			if intentional && !e.Intentional {
				e.Intentional = true
				e.Intent = intent
				e.Broad = broad
			}
		} else {
			at[k] = len(l.SearchBuys)
			l.SearchBuys = append(l.SearchBuys, SearchBuyPair{
				Query: q, ProductID: p.ID, Clicks: clicks, Purchases: purchased,
				Broad: broad, Intent: intent, Intentional: intentional,
			})
		}
	}
	slices.SortFunc(l.SearchBuys, func(x, y SearchBuyPair) int {
		return cmp.Or(strings.Compare(x.Query, y.Query), strings.Compare(x.ProductID, y.ProductID))
	})
	for i := range l.SearchBuys {
		e := &l.SearchBuys[i]
		l.queryDegree[e.Query]++
		l.prodQDegree[e.ProductID]++
	}
}

// CoBuyDegree returns the degree of product id in the co-buy graph, the
// paper's pop(p) for co-buy behaviors (Eq. 2).
func (l *Log) CoBuyDegree(id string) int { return l.coBuyDegree[id] }

// QueryDegree returns the degree of the query in the query-product
// interaction graph, the paper's pop(q) (Eq. 2).
func (l *Log) QueryDegree(q string) int { return l.queryDegree[q] }

// ProductQueryDegree returns the degree of product id in the
// query-product interaction graph.
func (l *Log) ProductQueryDegree(id string) int { return l.prodQDegree[id] }

// SessionConfig controls session-log simulation.
type SessionConfig struct {
	Seed int64
	// Sessions is the number of sessions to generate.
	Sessions int
	// Category restricts sessions to one domain (the paper evaluates
	// clothing and electronics separately).
	Category catalog.Category
	// MeanLength is the mean session length (items); the paper reports
	// ~8.8 for clothing and ~12.3 for electronics.
	MeanLength float64
	// QueryChurn is the probability the user reformulates the query
	// between steps; electronics sessions churn more (2.47 unique
	// queries vs 1.36 for clothing in Table 7).
	QueryChurn float64
}

// SimulateSessions generates session logs within one category. Each
// session picks a latent intent, then walks products whose types serve
// that intent, interleaved with query reformulations.
func SimulateSessions(c *catalog.Catalog, cfg SessionConfig) []Session {
	rng := rand.New(rand.NewSource(cfg.Seed))
	types := c.TypesInCategory(cfg.Category)
	if len(types) == 0 || cfg.Sessions <= 0 {
		return nil
	}
	// Index types by intent so sessions stay intent-coherent.
	byIntent := map[catalog.Intent][]string{}
	for _, tn := range types {
		pt, _ := c.Type(tn)
		for _, in := range pt.Intents {
			byIntent[in] = append(byIntent[in], tn)
		}
	}
	intents := make([]catalog.Intent, 0, len(byIntent))
	for in := range byIntent {
		intents = append(intents, in)
	}
	sort.Slice(intents, func(i, j int) bool {
		if intents[i].Relation != intents[j].Relation {
			return intents[i].Relation < intents[j].Relation
		}
		return intents[i].Tail < intents[j].Tail
	})
	sessions := make([]Session, 0, cfg.Sessions)
	for s := 0; s < cfg.Sessions; s++ {
		intent := intents[rng.Intn(len(intents))]
		pool := byIntent[intent]
		length := 2 + rng.Intn(int(cfg.MeanLength*2-3)+1) // mean ≈ MeanLength
		sess := Session{Category: cfg.Category, Intent: intent}
		q := BroadQuery(intent)
		for i := 0; i < length; i++ {
			tn := pool[rng.Intn(len(pool))]
			// Occasionally drift to a related type in the category to
			// model exploratory behavior.
			if rng.Float64() < 0.2 {
				tn = types[rng.Intn(len(types))]
			}
			ofType := c.OfType(tn)
			p := pickProduct(rng, ofType, popularity(ofType))
			if i > 0 && rng.Float64() < cfg.QueryChurn {
				// Reformulate: qualify the broad query with the type.
				if rng.Float64() < 0.5 {
					q = BroadQuery(intent) + " " + tn
				} else {
					q = tn
				}
			}
			sess.Items = append(sess.Items, p.ID)
			sess.Queries = append(sess.Queries, q)
		}
		sessions = append(sessions, sess)
	}
	return sessions
}

// String renders a behavior pair for debugging.
func (p CoBuyPair) String() string {
	return fmt.Sprintf("co-buy(%s,%s)x%d intentional=%v", p.A, p.B, p.Count, p.Intentional)
}
