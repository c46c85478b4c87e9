package navigation

import (
	"math/rand"

	"cosmo/internal/behavior"
	"cosmo/internal/catalog"
	"cosmo/internal/textproc"
)

// RewriteStudy measures how COSMO navigation reduces query rewrites —
// the investigation §4.2.4 of the paper leaves to future work. A shopper
// with a latent intent starts from its broad query; each turn they
// either accept a matching navigation refinement (treatment) or rewrite
// the query themselves (both arms), until the result list contains a
// product serving the full intent or they give up.
type RewriteStudy struct {
	cat *catalog.Catalog
	nav *Navigator
	exp *Experiment
}

// NewRewriteStudy builds the study over a navigator-equipped experiment
// world.
func NewRewriteStudy(cat *catalog.Catalog, nav *Navigator) *RewriteStudy {
	return &RewriteStudy{
		cat: cat,
		nav: nav,
		exp: NewExperiment(cat, nav, DefaultABConfig()),
	}
}

// RewriteResult reports mean rewrites per satisfied session.
type RewriteResult struct {
	ControlRewrites   float64
	TreatmentRewrites float64
	ControlSatisfied  float64
	TreatSatisfied    float64
}

// Run simulates n shoppers per arm with at most maxTurns query turns.
func (s *RewriteStudy) Run(seed int64, n, maxTurns int) RewriteResult {
	rng := rand.New(rand.NewSource(seed))
	var res RewriteResult
	ctlRewrites, ctlSat := 0, 0
	trtRewrites, trtSat := 0, 0
	for i := 0; i < n; i++ {
		intent := s.exp.intents[rng.Intn(len(s.exp.intents))]
		// Pair the arms on identical randomness so the comparison is a
		// matched experiment, not two independent samples.
		armSeed := rng.Int63()
		cr, cok := s.session(rand.New(rand.NewSource(armSeed)), intent, false, maxTurns)
		tr, tok := s.session(rand.New(rand.NewSource(armSeed)), intent, true, maxTurns)
		if cok {
			ctlSat++
			ctlRewrites += cr
		}
		if tok {
			trtSat++
			trtRewrites += tr
		}
	}
	if ctlSat > 0 {
		res.ControlRewrites = float64(ctlRewrites) / float64(ctlSat)
	}
	if trtSat > 0 {
		res.TreatmentRewrites = float64(trtRewrites) / float64(trtSat)
	}
	res.ControlSatisfied = float64(ctlSat) / float64(n)
	res.TreatSatisfied = float64(trtSat) / float64(n)
	return res
}

// session runs one shopper; returns (rewrites, satisfied).
func (s *RewriteStudy) session(rng *rand.Rand, intent catalog.Intent, nav bool, maxTurns int) (int, bool) {
	query := behavior.BroadQuery(intent)
	intentStems := textproc.ContentStems(intent.Tail)
	for turn := 0; turn < maxTurns; turn++ {
		results := s.exp.searchResults(query, 4)
		for _, p := range results {
			if s.exp.servesIntent(p, intent) {
				return turn, true
			}
		}
		// Not satisfied: refine. With navigation, a matching suggestion
		// provides the refinement directly; otherwise the shopper guesses
		// another word from their intent.
		if nav {
			if sug := s.exp.matchingSuggestion(s.nav.Refine(query, 5), intent); sug != "" {
				query = sug
				continue
			}
		}
		// Manual rewrite: append a random intent word not yet in the query.
		if len(intentStems) > 0 {
			query = query + " " + intentStems[rng.Intn(len(intentStems))]
		} else {
			return turn, false
		}
	}
	return maxTurns, false
}
