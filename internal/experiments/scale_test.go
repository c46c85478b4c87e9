package experiments

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"cosmo/internal/cosmolm"
	"cosmo/internal/fnv1a"
	"cosmo/internal/kg"
	"cosmo/internal/know"
	"cosmo/internal/textproc"
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
	v := textproc.NewVocab()
	for k := 1; k < factor; k++ {
		suffix := fmt.Sprintf("#%d", k)
		for _, sb := range res.SampledSearchBuys {
			p, ok := res.Catalog.ByID(sb.ProductID)
			if !ok {
				continue
			}
			ctx := cosmolm.SearchContext(sb.Query, p.Title)
			cosmolm.AddInput(v, ctx)
			for _, gen := range res.CosmoLM.GenerateScored(v, ctx, p.Category, 2) {
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

// TestScaledKGMatchesReference: admitting the world's own Stage 8
// expansion per replica builds the graph the per-replica loop built —
// same nodes, same edges, same artifact bytes — and asks COSMO-LM
// nothing, where the reference asked every replica's questions again.
func TestScaledKGMatchesReference(t *testing.T) {
	r, _ := runner(t)
	lm := r.World().CosmoLM
	const factor = 3
	before := lm.Cost().Calls
	want, err := refScaledKG(r, factor)
	if err != nil {
		t.Fatal(err)
	}
	if lm.Cost().Calls == before {
		t.Fatal("the reference asked COSMO-LM nothing: the world samples no search behavior")
	}
	before = lm.Cost().Calls
	got, err := r.ScaledKG(factor)
	if err != nil {
		t.Fatal(err)
	}
	if calls := lm.Cost().Calls - before; calls != 0 {
		t.Errorf("ScaledKG made %d COSMO-LM calls, want 0", calls)
	}
	if !reflect.DeepEqual(got.Nodes(), want.Nodes()) {
		t.Fatal("nodes differ from the reference")
	}
	if !reflect.DeepEqual(got.Edges(), want.Edges()) {
		t.Fatal("edges differ from the reference")
	}
	if !bytes.Equal(snapshotBytes(t, got), snapshotBytes(t, want)) {
		t.Fatal("snapshot bytes differ from the reference")
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

// TestScaledKGGolden pins the ScaledKG(2) graph of the tests' world, at
// the shared runner's worker count and at one worker: the packed
// artifact's table CRC and a content digest (FNV-1a over the JSONL
// export plus one id\ttype\tlabel line per node). Where ScaledKG gets
// its Stage 8 expansion from must not move either value.
func TestScaledKGGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden floats are pinned on amd64: other targets may fuse multiply-adds and legitimately differ")
	}
	const (
		wantFingerprint = "a2e86001f1995b98"
		wantContent     = "60f1f8a368035a59"
	)
	shared, _ := runner(t)
	serial := NewRunner(io.Discard, shared.Scale)
	serial.Workers = 1
	for _, r := range []*Runner{shared, serial} {
		g, err := r.ScaledKG(2)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := g.FreezeChecked()
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "scaled.cosmo")
		if err := kg.WriteSnapshotFile(path, snap); err != nil {
			t.Fatal(err)
		}
		stamp, err := kg.StampSnapshotFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%016x", stamp.TableCRC); got != wantFingerprint {
			t.Errorf("workers %d: fingerprint %s, want %s", r.Workers, got, wantFingerprint)
		}
		h := fnv1a.Offset64
		w := writerFunc(func(p []byte) (int, error) {
			for _, c := range p {
				h = fnv1a.Byte64(h, c)
			}
			return len(p), nil
		})
		if err := snap.WriteJSONL(w); err != nil {
			t.Fatal(err)
		}
		for _, n := range snap.Nodes() {
			fmt.Fprintf(w, "%s\t%s\t%s\n", n.ID, n.Type, n.Label)
		}
		if got := fmt.Sprintf("%016x", h); got != wantContent {
			t.Errorf("workers %d: content %s, want %s", r.Workers, got, wantContent)
		}
	}
}

// writerFunc adapts a function to io.Writer.
type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
