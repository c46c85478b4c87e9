package navigation

import (
	"math/rand"
	"strings"

	"cosmo/internal/behavior"
	"cosmo/internal/catalog"
	"cosmo/internal/metrics"
	"cosmo/internal/textproc"
)

// ABConfig parameterizes the agent-based online experiment of §4.3.2.
type ABConfig struct {
	Seed     int64
	Visitors int
	// TreatmentFraction is the share of traffic exposed to the COSMO
	// navigation widget (the paper treats ~10% of US traffic).
	TreatmentFraction float64
	// WidgetVisibility is the probability a treated shopper notices the
	// widget ("a single, relatively minor feature ... with limited
	// showroom visibility").
	WidgetVisibility float64
	// BaseConversion is the purchase probability when the result list
	// already satisfies the shopper.
	BaseConversion float64
	// FallbackConversion is the purchase probability when the top
	// results miss: shoppers reformulate, browse, or leave.
	FallbackConversion float64
	// RefinedConversion applies after a successful navigation refinement
	// (the shopper lands on products matching the full intent).
	RefinedConversion float64
	// TopN is how many search results a shopper inspects.
	TopN int
}

// DefaultABConfig returns settings calibrated to produce the paper's
// small-but-real lift (+0.7% sales relative, ~8% engagement).
func DefaultABConfig() ABConfig {
	return ABConfig{
		Seed:               51,
		Visitors:           200000,
		TreatmentFraction:  0.10,
		WidgetVisibility:   0.09,
		BaseConversion:     0.30,
		FallbackConversion: 0.25,
		RefinedConversion:  0.28,
		TopN:               4,
	}
}

// ABResult reports the experiment endpoints.
type ABResult struct {
	ControlVisitors, TreatmentVisitors int
	ControlSales, TreatmentSales       int
	Engagements                        int
}

// SalesLift returns the relative per-visitor sales lift of treatment
// over control — the paper's 0.7% headline.
func (r ABResult) SalesLift() float64 {
	if r.ControlVisitors == 0 || r.TreatmentVisitors == 0 {
		return 0
	}
	control := float64(r.ControlSales) / float64(r.ControlVisitors)
	treatment := float64(r.TreatmentSales) / float64(r.TreatmentVisitors)
	return metrics.RelativeLift(control, treatment)
}

// EngagementRate returns the fraction of treated visitors who engaged
// with the navigation widget.
func (r ABResult) EngagementRate() float64 {
	if r.TreatmentVisitors == 0 {
		return 0
	}
	return float64(r.Engagements) / float64(r.TreatmentVisitors)
}

// Experiment runs the A/B simulation: shoppers with latent intents issue
// broad queries; the control arm sees a plain lexical result list; the
// treatment arm also sees COSMO navigation refinements.
type Experiment struct {
	cat *catalog.Catalog
	nav *Navigator
	cfg ABConfig
	// intentPool maps an intent to products serving it.
	intents []catalog.Intent
	pool    map[catalog.Intent][]catalog.Product

	searchCache map[string][]catalog.Product
	refineCache map[string][]Suggestion
}

// NewExperiment prepares the shopper world.
func NewExperiment(cat *catalog.Catalog, nav *Navigator, cfg ABConfig) *Experiment {
	e := &Experiment{
		cat: cat, nav: nav, cfg: cfg,
		pool:        map[catalog.Intent][]catalog.Product{},
		searchCache: map[string][]catalog.Product{},
		refineCache: map[string][]Suggestion{},
	}
	for _, tn := range cat.Types() {
		pt, _ := cat.Type(tn)
		for _, in := range pt.Intents {
			if len(e.pool[in]) == 0 {
				e.intents = append(e.intents, in)
			}
			e.pool[in] = append(e.pool[in], cat.OfType(tn)...)
		}
	}
	return e
}

// searchResults is the control experience: products ranked by lexical
// match between the query and title, then popularity. Results are cached
// per query (they are deterministic).
func (e *Experiment) searchResults(query string, k int) []catalog.Product {
	if ps, ok := e.searchCache[query]; ok {
		return ps
	}
	qStems := map[string]bool{}
	for _, s := range textproc.ContentStems(query) {
		qStems[s] = true
	}
	var out []scored
	for _, p := range e.cat.Products() {
		match := 0.0
		for _, s := range textproc.ContentStems(p.Title) {
			if qStems[s] {
				match++
			}
		}
		if match > 0 {
			out = append(out, scored{p, match + 0.1*p.Popularity})
		}
	}
	sortSlice(out)
	if k > len(out) {
		k = len(out)
	}
	ps := make([]catalog.Product, k)
	for i := 0; i < k; i++ {
		ps[i] = out[i].p
	}
	e.searchCache[query] = ps
	return ps
}

// Run executes the experiment.
func (e *Experiment) Run() ABResult {
	rng := rand.New(rand.NewSource(e.cfg.Seed))
	var res ABResult
	for v := 0; v < e.cfg.Visitors; v++ {
		intent := e.intents[rng.Intn(len(e.intents))]
		query := behavior.BroadQuery(intent)
		treated := rng.Float64() < e.cfg.TreatmentFraction
		if treated {
			res.TreatmentVisitors++
		} else {
			res.ControlVisitors++
		}
		// Baseline search path, shared by both arms.
		results := e.searchResults(query, e.cfg.TopN)
		satisfied := false
		for _, p := range results {
			if e.servesIntent(p, intent) {
				satisfied = true
				break
			}
		}
		// Conversion probability: satisfied shoppers buy from the list;
		// unsatisfied ones fall back to reformulation and browsing.
		conv := e.cfg.FallbackConversion
		if satisfied {
			conv = e.cfg.BaseConversion
		}
		// Treatment arm: a noticed, matching navigation refinement lifts
		// the unsatisfied shopper onto the intent-filtered results.
		if treated && rng.Float64() < e.cfg.WidgetVisibility {
			sugs, ok := e.refineCache[query]
			if !ok {
				sugs = e.nav.Refine(query, 5)
				e.refineCache[query] = sugs
			}
			if match := e.matchingSuggestion(sugs, intent); match != "" {
				res.Engagements++
				if !satisfied && e.cfg.RefinedConversion > conv {
					conv = e.cfg.RefinedConversion
				}
			}
		}
		if rng.Float64() < conv {
			if treated {
				res.TreatmentSales++
			} else {
				res.ControlSales++
			}
		}
	}
	return res
}

// servesIntent checks ground truth: does the product's type carry the
// shopper's intent?
func (e *Experiment) servesIntent(p catalog.Product, intent catalog.Intent) bool {
	for _, in := range e.cat.IntentsOf(p) {
		if in == intent {
			return true
		}
	}
	return false
}

// matchingSuggestion returns the label of the suggestion that best
// overlaps the shopper's full intent tail. A suggestion must cover at
// least half the intent's content stems to count — weaker overlaps lead
// the shopper astray rather than toward their intent.
func (e *Experiment) matchingSuggestion(sugs []Suggestion, intent catalog.Intent) string {
	wantStems := textproc.ContentStems(intent.Tail)
	want := map[string]bool{}
	for _, s := range wantStems {
		want[s] = true
	}
	minOverlap := (len(want) + 1) / 2
	best, bestOverlap := "", 0
	for _, sug := range sugs {
		seen := map[string]bool{}
		overlap := 0
		for _, s := range textproc.ContentStems(sug.Label) {
			if want[s] && !seen[s] {
				seen[s] = true
				overlap++
			}
		}
		if overlap >= minOverlap && overlap > bestOverlap {
			best, bestOverlap = sug.Label, overlap
		}
	}
	return best
}

// sortSlice sorts scored results descending deterministically.
func sortSlice(out []scored) {
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && less(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
}

func less(a, b scored) bool {
	if a.s != b.s {
		return a.s > b.s
	}
	return strings.Compare(a.p.ID, b.p.ID) < 0
}

type scored struct {
	p catalog.Product
	s float64
}
