package experiments

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"testing"

	"cosmo/internal/cosmolm"
	"cosmo/internal/kg"
	"cosmo/internal/know"
)

// TestScaledKGGrowth pins the harness's contract: factor f yields at
// least f× the base world's edges, node growth stays sub-linear in
// edges (the intention space is shared across replicas), and the
// result freezes and binary-round-trips cleanly.
func TestScaledKGGrowth(t *testing.T) {
	r, _ := runner(t)
	base := r.World().KG

	g, err := r.ScaledKG(3)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() < 3*base.NumEdges() {
		t.Fatalf("factor 3: %d edges, want >= %d", g.NumEdges(), 3*base.NumEdges())
	}
	// Shared intention tails: scaling adds head nodes but no new tail
	// per replica, so nodes grow strictly slower than 3x edges would.
	if g.NumNodes() >= 3*base.NumNodes() {
		t.Fatalf("factor 3: %d nodes, want < %d (tails must be shared)", g.NumNodes(), 3*base.NumNodes())
	}

	snap, err := g.FreezeChecked()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snap.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := kg.ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumEdges() != snap.NumEdges() || loaded.NumNodes() != snap.NumNodes() {
		t.Fatalf("round trip: %d/%d nodes, %d/%d edges",
			loaded.NumNodes(), snap.NumNodes(), loaded.NumEdges(), snap.NumEdges())
	}
}

// TestScaledKGDeterministic: the same factor over the same world must
// reproduce the graph bit for bit — the property that makes the scale
// benchmarks comparable across runs.
func TestScaledKGDeterministic(t *testing.T) {
	r, _ := runner(t)
	a, err := r.ScaledKG(2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.ScaledKG(2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Nodes(), b.Nodes()) {
		t.Fatal("ScaledKG nodes differ across identical runs")
	}
	if !reflect.DeepEqual(a.Edges(), b.Edges()) {
		t.Fatal("ScaledKG edges differ across identical runs")
	}
}

// refScaledKG is the previous ScaledKG, kept as the oracle: every
// replica asked COSMO-LM for the Stage 8 expansion again, and admitted
// each generation as it came.
func refScaledKG(r *Runner, factor int) (*kg.Graph, error) {
	res := r.World()
	base := res.KG

	g := kg.New()
	for _, n := range base.Nodes() {
		g.AddNode(n)
	}
	baseEdges := base.Edges()
	for _, e := range baseEdges {
		if err := g.AddEdge(e); err != nil {
			return nil, err
		}
	}
	for k := 1; k < factor; k++ {
		suffix := fmt.Sprintf("#%d", k)
		for _, sb := range res.SampledSearchBuys {
			p, ok := res.Catalog.ByID(sb.ProductID)
			if !ok {
				continue
			}
			ctx := cosmolm.SearchContext(sb.Query, p.Title)
			for _, gen := range res.CosmoLM.GenerateScored(ctx, p.Category, 2) {
				if gen.Plausibility <= 0.5 {
					continue
				}
				c := know.Candidate{
					Behavior: know.SearchBuy, Domain: p.Category,
					Query: sb.Query + suffix, ProductA: sb.ProductID + suffix, TypeA: p.Type,
					Relation: gen.Relation, Tail: gen.Tail, Text: gen.Text,
					PlausibleScore: gen.Plausibility, TypicalScore: gen.Typicality,
				}
				if err := g.AddAssertion(c); err != nil {
					return nil, err
				}
			}
		}
		for _, e := range baseEdges {
			hn, ok := base.Node(e.Head)
			if !ok {
				return nil, fmt.Errorf("base edge head %q has no node", e.Head)
			}
			rep := e
			rep.Head = e.Head + suffix
			g.AddNode(kg.Node{ID: rep.Head, Type: hn.Type, Label: hn.Label})
			if err := g.AddEdge(rep); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

func snapshotBytes(t *testing.T, g *kg.Graph) []byte {
	t.Helper()
	snap, err := g.FreezeChecked()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snap.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestScaledKGMatchesReference: asking COSMO-LM once per behavior and
// admitting the answers per replica builds the graph the per-replica
// loop built — same nodes, same edges, same artifact bytes — at one
// worker and at four, and charges the cost meter for one replica's
// questions instead of every replica's.
func TestScaledKGMatchesReference(t *testing.T) {
	r, _ := runner(t)
	lm := r.World().CosmoLM
	const factor = 3
	before := lm.Cost().Calls
	want, err := refScaledKG(r, factor)
	if err != nil {
		t.Fatal(err)
	}
	refCalls := lm.Cost().Calls - before
	wantBytes := snapshotBytes(t, want)
	for _, workers := range []int{1, 4} {
		rw := &Runner{Scale: r.Scale, Seed: r.Seed, Out: io.Discard, Workers: workers, res: r.World()}
		before := lm.Cost().Calls
		got, err := rw.ScaledKG(factor)
		if err != nil {
			t.Fatal(err)
		}
		if calls := lm.Cost().Calls - before; calls*(factor-1) != refCalls {
			t.Errorf("workers %d: %d COSMO-LM calls, want %d / %d", workers, calls, refCalls, factor-1)
		}
		if !reflect.DeepEqual(got.Nodes(), want.Nodes()) {
			t.Fatalf("workers %d: nodes differ from the reference", workers)
		}
		if !reflect.DeepEqual(got.Edges(), want.Edges()) {
			t.Fatalf("workers %d: edges differ from the reference", workers)
		}
		if !bytes.Equal(snapshotBytes(t, got), wantBytes) {
			t.Fatalf("workers %d: snapshot bytes differ from the reference", workers)
		}
	}
}

// BenchmarkScaledKG times the serving set-up's KG path past the world:
// ScaledKG(6), as the bench/ harness sizes it, then Freeze. The world is
// the tests' cached one, built before the timer.
func BenchmarkScaledKG(b *testing.B) {
	r, _ := runner(b)
	r.World()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := r.ScaledKG(6)
		if err != nil {
			b.Fatal(err)
		}
		if g.Freeze().NumEdges() == 0 {
			b.Fatal("no edges")
		}
	}
}

// TestScaledKGFactorOne: factor 1 is a pure copy of the base graph.
func TestScaledKGFactorOne(t *testing.T) {
	r, _ := runner(t)
	base := r.World().KG
	g, err := r.ScaledKG(1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.Edges(), base.Edges()) {
		t.Fatal("factor 1 edges differ from the base graph")
	}
	if _, err := r.ScaledKG(0); err == nil {
		t.Fatal("factor 0 accepted")
	}
}
