package serving

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"cosmo/internal/cosmolm"
	"cosmo/internal/instruction"
	"cosmo/internal/textproc"
)

// referenceModelResponder is the COSMO-LM adapter cmd/cosmo-serve
// carried inline before ModelResponder, kept as the oracle.
func referenceModelResponder(lm *cosmolm.Model) ContextResponder {
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

// smallModel trains COSMO-LM on a handful of generation instances.
func smallModel() *cosmolm.Model {
	var data []instruction.Instance
	add := func(query, output string, times int) {
		for i := 0; i < times; i++ {
			data = append(data, instruction.Instance{
				Task:   instruction.TaskGenerate,
				Input:  "search query: " + query,
				Output: output,
				Domain: "outdoors",
			})
		}
	}
	add("camping tent", "used for camping", 5)
	add("camping stove", "used for cooking outdoors", 3)
	add("camping chair", "capable of holding a person", 1)
	add("hiking boots", "used for hiking", 4)
	add("winter coat", "used for keeping warm", 2)
	add("rain jacket", "used for staying dry", 1)
	v := textproc.NewVocab()
	cosmolm.AddInputs(v, data)
	return cosmolm.Train(v, data, cosmolm.DefaultConfig())
}

// TestModelResponderMatchesReference holds ModelResponder to the
// adapter it replaced, query for query, and checks that a cancelled
// call reaches no inference.
func TestModelResponderMatchesReference(t *testing.T) {
	lm := smallModel()
	got, want := ModelResponder(lm), referenceModelResponder(lm)
	ctx := context.Background()
	full := 0
	for _, q := range []string{"camping", "camping tent", "hiking", "winter camping coat", "rain", "no such words", ""} {
		g, gerr := got.RespondContext(ctx, q)
		w, werr := want.RespondContext(ctx, q)
		if gerr != nil || werr != nil {
			t.Fatalf("%q: errors %v / %v", q, gerr, werr)
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%q:\n got %+v\nwant %+v", q, g, w)
		}
		if g.SubCategory != "" && g.StrongIntent {
			full++
		}
	}
	// DeepEqual only proves something for fields the fixture fills.
	if full == 0 {
		t.Fatal("no feature carried SubCategory and StrongIntent")
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := ModelResponder(lm).RespondContext(cancelled, "camping"); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled call err = %v, want context.Canceled", err)
	}
}
