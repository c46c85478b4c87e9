// Package sampling implements COSMO's fine-grained behavior sampling
// (§3.2.1): product sampling by category and product-type labels,
// co-buy pair sampling with product-type cross-checks, search-buy pair
// sampling with engagement thresholds and query-specificity scoring, and
// the re-weighted annotation sampling of Eq. 2.
package sampling

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"cosmo/internal/behavior"
	"cosmo/internal/catalog"
	"cosmo/internal/textproc"
)

// Config tunes the sampling stages.
type Config struct {
	Seed int64
	// TopProductsPerType keeps the top-k products of each product type by
	// interaction volume ("top-tier products that have relatively larger
	// behavior interactions").
	TopProductsPerType int
	// MaxPairsPerTypePair caps co-buy pairs per (typeA, typeB) to "avoid
	// duplicated sampling from the abstract level".
	MaxPairsPerTypePair int
	// MinPurchaseRate and MinClickCount are the search-buy engagement
	// thresholds.
	MinPurchaseRate float64
	MinClickCount   int
	// BroadSpecificityMax selects broad queries: specificity below this
	// is considered broad/ambiguous and prioritized for generation.
	BroadSpecificityMax float64
	// LowEngagementFraction adds a slice of low-engagement queries to
	// "directly probe knowledge from LLMs themselves".
	LowEngagementFraction float64
}

// DefaultConfig returns laptop-scale thresholds.
func DefaultConfig() Config {
	return Config{
		Seed:                  13,
		TopProductsPerType:    8,
		MaxPairsPerTypePair:   40,
		MinPurchaseRate:       0.3,
		MinClickCount:         2,
		BroadSpecificityMax:   0.5,
		LowEngagementFraction: 0.1,
	}
}

// Sampler runs the sampling strategies over one behavior log.
type Sampler struct {
	log *behavior.Log
	cfg Config
}

// New builds a sampler.
func New(log *behavior.Log, cfg Config) *Sampler {
	return &Sampler{log: log, cfg: cfg}
}

// SampleProducts returns the selected top-tier product set: for each
// product type, the top-k products by total interaction volume
// (co-buy degree + query-interaction degree).
func (s *Sampler) SampleProducts() map[string]bool {
	c := s.log.Catalog
	selected := map[string]bool{}
	var ps []catalog.Product // a copy to sort: OfType is the catalog's view
	for _, tn := range c.Types() {
		ps = append(ps[:0], c.OfType(tn)...)
		slices.SortFunc(ps, func(a, b catalog.Product) int {
			da := s.log.CoBuyDegree(a.ID) + s.log.ProductQueryDegree(a.ID)
			db := s.log.CoBuyDegree(b.ID) + s.log.ProductQueryDegree(b.ID)
			if da != db {
				return cmp.Compare(db, da)
			}
			return strings.Compare(a.ID, b.ID)
		})
		k := s.cfg.TopProductsPerType
		if k > len(ps) {
			k = len(ps)
		}
		for _, p := range ps[:k] {
			selected[p.ID] = true
		}
	}
	return selected
}

// SampleCoBuyPairs applies the paper's co-buy pair strategy: every kept
// edge covers at least one selected product; the product types of the
// pair are cross-checked (pairs of unrelated types are treated as random
// co-purchases and dropped); duplicate sampling at the type level is
// capped.
func (s *Sampler) SampleCoBuyPairs(selected map[string]bool) []behavior.CoBuyPair {
	c := s.log.Catalog
	perTypePair := map[[2]string]int{}
	var out []behavior.CoBuyPair
	for _, e := range s.log.CoBuys {
		if !selected[e.A] && !selected[e.B] {
			continue
		}
		pa, _ := c.ByID(e.A)
		pb, _ := c.ByID(e.B)
		// Cross-check product types: keep the pair only if the types are
		// declared complements, share an intent, or are the same type
		// bought repeatedly (multi-pack behavior). Anything else is
		// "likely randomly selected" in the paper's heuristic.
		if pa.Type != pb.Type && !c.AreComplements(pa.Type, pb.Type) {
			var buf [8]catalog.Intent
			if len(c.AppendSharedIntents(buf[:0], pa, pb)) == 0 {
				continue
			}
		}
		tp := [2]string{pa.Type, pb.Type}
		if tp[0] > tp[1] {
			tp[0], tp[1] = tp[1], tp[0]
		}
		if perTypePair[tp] >= s.cfg.MaxPairsPerTypePair {
			continue
		}
		perTypePair[tp]++
		out = append(out, e)
	}
	return out
}

// Specificity scores how specific a query is, in [0,1]. It substitutes
// the paper's in-house Amazon Search specificity service: broad queries
// are short and interact with many distinct products; specific queries
// are long and concentrated. The score combines token count and the
// inverse of the query's interaction degree.
func (s *Sampler) Specificity(query string) float64 {
	lenScore := float64(textproc.CountTokens(query)) / 4.0
	if lenScore > 1 {
		lenScore = 1
	}
	deg := s.log.QueryDegree(query)
	degScore := 1.0 / (1.0 + float64(deg)/4.0)
	return 0.6*lenScore + 0.4*degScore
}

// SampleSearchBuyPairs applies engagement thresholds, prioritizes broad
// queries (specificity below BroadSpecificityMax), and adds a slice of
// low-engagement queries to probe the LLM directly.
func (s *Sampler) SampleSearchBuyPairs(selected map[string]bool) []behavior.SearchBuyPair {
	rng := rand.New(rand.NewSource(s.cfg.Seed))
	var kept, lowEng []behavior.SearchBuyPair
	for _, e := range s.log.SearchBuys {
		if !selected[e.ProductID] {
			continue
		}
		purchaseRate := float64(e.Purchases) / float64(e.Clicks)
		engaged := e.Clicks >= s.cfg.MinClickCount && purchaseRate >= s.cfg.MinPurchaseRate
		broad := s.Specificity(e.Query) <= s.cfg.BroadSpecificityMax
		switch {
		case engaged && broad:
			kept = append(kept, e)
		case engaged:
			// Specific engaged queries are kept at half rate: search
			// engines already understand them well, so they are less
			// valuable for generation.
			if rng.Float64() < 0.5 {
				kept = append(kept, e)
			}
		case e.Purchases > 0:
			lowEng = append(lowEng, e)
		}
	}
	// Add the low-engagement slice.
	n := int(float64(len(kept)) * s.cfg.LowEngagementFraction)
	if n > len(lowEng) {
		n = len(lowEng)
	}
	rng.Shuffle(len(lowEng), func(i, j int) { lowEng[i], lowEng[j] = lowEng[j], lowEng[i] })
	kept = append(kept, lowEng[:n]...)
	return kept
}

// AnnotationWeight implements Eq. 2 of the paper:
//
//	w_{(q,p),t} = log(f(t)) / (pop(q) × pop(p))
//
// Frequent knowledge gets up-weighted logarithmically while knowledge
// attached to very popular contexts is down-weighted, protecting
// long-tail knowledge from being crowded out of the annotation budget.
func AnnotationWeight(freq, popQ, popP int) float64 {
	if freq < 1 {
		freq = 1
	}
	if popQ < 1 {
		popQ = 1
	}
	if popP < 1 {
		popP = 1
	}
	return math.Log(float64(freq)+1) / (float64(popQ) * float64(popP))
}

// WeightedSample draws n distinct indices from weights without
// replacement, with probability proportional to weight. Zero or negative
// weights are never drawn. The draw is deterministic for a given rng.
func WeightedSample(rng *rand.Rand, weights []float64, n int) []int {
	type item struct {
		idx int
		key float64
	}
	items := make([]item, 0, len(weights))
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		// Efraimidis–Spirakis reservoir key: u^(1/w).
		u := rng.Float64()
		items = append(items, item{i, math.Pow(u, 1.0/w)})
	}
	sort.Slice(items, func(i, j int) bool { return items[i].key > items[j].key })
	if n > len(items) {
		n = len(items)
	}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		out[i] = items[i].idx
	}
	sort.Ints(out)
	return out
}
