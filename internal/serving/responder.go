package serving

import (
	"context"
	"errors"

	"cosmo/internal/cosmolm"
)

// ContextResponder runs model inference for one query — the expensive
// path the cache architecture keeps off the request critical path. It
// honors cancellation, may time out, and reports failure instead of
// fabricating a feature.
type ContextResponder interface {
	RespondContext(ctx context.Context, query string) (Feature, error)
}

// ContextResponderFunc adapts a function to the ContextResponder
// interface.
type ContextResponderFunc func(ctx context.Context, query string) (Feature, error)

// RespondContext calls f.
func (f ContextResponderFunc) RespondContext(ctx context.Context, query string) (Feature, error) {
	return f(ctx, query)
}

// ModelResponder adapts COSMO-LM to serving: the top three generations
// for "search query: <q>" become the feature's intents and relations,
// and the best one names its sub-category and, scored above 1, marks a
// strong intent. A call checks ctx before inference but cannot
// interrupt it mid-call.
func ModelResponder(lm *cosmolm.Model) ContextResponder {
	return ContextResponderFunc(func(ctx context.Context, q string) (Feature, error) {
		if err := ctx.Err(); err != nil {
			return Feature{}, err
		}
		gens := lm.Generate("search query: "+q, "", "", 3)
		f := Feature{Query: q}
		for _, g := range gens {
			f.Intents = append(f.Intents, g.Text)
			f.Relations = append(f.Relations, string(g.Relation))
		}
		if len(gens) > 0 {
			f.SubCategory = gens[0].Tail
			f.StrongIntent = gens[0].Score > 1.0
		}
		return f, nil
	})
}

// Sentinel errors surfaced by the resilience layer.
var (
	// ErrBreakerOpen is returned without invoking the responder while
	// the circuit breaker is open (fail-fast degradation).
	ErrBreakerOpen = errors.New("serving: circuit breaker open")
	// ErrResponderPanic wraps a panic recovered from a responder call.
	ErrResponderPanic = errors.New("serving: responder panicked")
)
