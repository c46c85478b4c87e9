package serving

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"cosmo/internal/catalog"
	"cosmo/internal/kg"
	"cosmo/internal/know"
	"cosmo/internal/relations"
	"cosmo/internal/wire"
)

// stdlibJSON is the oracle: what the handlers used to send, minus the
// trailing newline (the handlers append it themselves).
func stdlibJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
}

// handlerIntention mirrors the inline response struct the /intentions
// handler used before the hand-rolled encoder.
type handlerIntention struct {
	Relation  string  `json:"relation"`
	Intention string  `json:"intention"`
	Plausible float64 `json:"plausible"`
	Typical   float64 `json:"typical"`
	Support   int     `json:"support"`
}

// legacyIntentions rebuilds the pre-encoder /intentions response value.
func legacyIntentions(snap *kg.Snapshot, id string, k int) map[string]any {
	seq := snap.IntentionsFor(id)
	n := seq.Len()
	if n > k {
		n = k
	}
	out := make([]handlerIntention, n)
	for i := 0; i < n; i++ {
		e := seq.At(i)
		tail, _ := snap.Node(e.Tail)
		out[i] = handlerIntention{
			Relation:  string(e.Relation),
			Intention: tail.Label,
			Plausible: e.PlausibleScore,
			Typical:   e.TypicalScore,
			Support:   e.Support,
		}
	}
	return map[string]any{"id": id, "intentions": out}
}

// TestEncodersGolden pins every hand-rolled response encoder to the
// stdlib bytes it replaced, over the real snapshot shapes.
func TestEncodersGolden(t *testing.T) {
	snap := testSnapshot(t)

	t.Run("queued", func(t *testing.T) {
		for _, q := range []string{"tent", "", `quo"te <&> \`, "snow man \xff"} {
			want := stdlibJSON(t, map[string]string{"status": "queued", "query": q})
			got := AppendQueuedJSON(nil, q)
			if !bytes.Equal(got, want) {
				t.Errorf("AppendQueuedJSON(%q):\n got %s\nwant %s", q, got, want)
			}
		}
	})

	t.Run("feature", func(t *testing.T) {
		features := []Feature{
			{},
			{
				Query:        "tent",
				Intents:      []string{"used for camping", "v1"},
				Relations:    []string{"USED_FOR_FUNC"},
				SubCategory:  "tent",
				StrongIntent: true,
				Version:      3,
				CreatedAt:    time.Date(2026, 8, 8, 11, 30, 0, 123456789, time.UTC),
			},
			{Query: "<html&>", Intents: []string{}, Relations: nil, Stale: true,
				CreatedAt: time.Date(2024, 1, 2, 3, 4, 5, 0, time.FixedZone("X", 3600))},
		}
		for _, f := range features {
			want := stdlibJSON(t, f)
			got := AppendFeatureJSON(nil, &f)
			if !bytes.Equal(got, want) {
				t.Errorf("AppendFeatureJSON(%+v):\n got %s\nwant %s", f, got, want)
			}
		}
	})

	t.Run("intentions", func(t *testing.T) {
		for _, id := range []string{"q:tent", "p:P1", "q:nope", `quo"te`} {
			for _, k := range []int{1, 2, 10} {
				want := stdlibJSON(t, legacyIntentions(snap, id, k))
				got := AppendIntentionsJSON(nil, snap, id, k)
				if !bytes.Equal(got, want) {
					t.Errorf("AppendIntentionsJSON(%q, %d):\n got %s\nwant %s", id, k, got, want)
				}
			}
		}
	})

	t.Run("related", func(t *testing.T) {
		for _, id := range []string{"p:P1", "p:P2", "q:tent", "p:nope"} {
			for _, k := range []int{1, 10} {
				want := stdlibJSON(t, map[string]any{"id": id, "related": snap.RelatedProducts(id, k)})
				got := AppendRelatedJSON(nil, snap, id, k)
				if !bytes.Equal(got, want) {
					t.Errorf("AppendRelatedJSON(%q, %d):\n got %s\nwant %s", id, k, got, want)
				}
			}
		}
	})

	t.Run("kg", func(t *testing.T) {
		want := stdlibJSON(t, map[string]any{
			"nodes":     snap.NumNodes(),
			"edges":     snap.NumEdges(),
			"relations": snap.NumRelations(),
		})
		if got := AppendKGJSON(nil, snap); !bytes.Equal(got, want) {
			t.Errorf("AppendKGJSON:\n got %s\nwant %s", got, want)
		}
	})

	t.Run("similar", func(t *testing.T) {
		cases := [][]kg.SimilarMatch{
			{},
			{{ID: "i:a", Label: "camping", Score: 0.9375}, {ID: "i:b", Label: "sh<a>de", Score: math.Sqrt(2) / 3}},
		}
		for _, matches := range cases {
			want := stdlibJSON(t, map[string]any{"q": "te nt", "matches": matches})
			if got := AppendSimilarJSON(nil, "te nt", matches); !bytes.Equal(got, want) {
				t.Errorf("AppendSimilarJSON:\n got %s\nwant %s", got, want)
			}
		}
	})
}

// appendIntentionsTailReference is the /intentions encoder that
// appendIntentionsTail replaced: it materializes each edge with At and
// resolves its tail's label with a Node lookup.
func appendIntentionsTailReference(dst []byte, snap *kg.Snapshot, seq kg.EdgeSeq, k int) []byte {
	dst = append(dst, `,"intentions":[`...)
	n := seq.Len()
	if n > k {
		n = k
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		e := seq.At(i)
		tail, _ := snap.Node(e.Tail)
		dst = append(dst, `{"relation":`...)
		dst = wire.AppendString(dst, string(e.Relation))
		dst = append(dst, `,"intention":`...)
		dst = wire.AppendString(dst, tail.Label)
		dst = append(dst, `,"plausible":`...)
		dst = wire.AppendFloat(dst, e.PlausibleScore)
		dst = append(dst, `,"typical":`...)
		dst = wire.AppendFloat(dst, e.TypicalScore)
		dst = append(dst, `,"support":`...)
		dst = wire.AppendInt(dst, int64(e.Support))
		dst = append(dst, '}')
	}
	return append(dst, "]}"...)
}

// randomIntentionsGraph builds a graph whose intention tails share a
// few labels (escapes and non-ASCII among them), with tied scores and
// rows of varied length, so the column encoder must pick each edge's
// own tail, not the first node with its label.
func randomIntentionsGraph(t *testing.T, rng *rand.Rand) *kg.Graph {
	t.Helper()
	g := kg.New()
	labels := []string{"camping", "camping", "winter <camping>", `quo"te`, "zelt für 2", "camping"}
	rels := []relations.Relation{relations.UsedForEve, relations.CapableOf, relations.UsedBy, relations.IsA}
	scores := []float64{0, 0.2, 0.5, 0.5, 0.8, 1, math.Sqrt(2) / 3}
	nTails := 3 + rng.Intn(12)
	for i := 0; i < nTails; i++ {
		g.AddNode(kg.Node{ID: fmt.Sprintf("i:t%02d", i), Type: kg.NodeIntention, Label: labels[rng.Intn(len(labels))]})
	}
	for h := 0; h < 6; h++ {
		head := fmt.Sprintf("p:P%d", h)
		g.AddNode(kg.Node{ID: head, Type: kg.NodeProduct, Label: "product " + head})
		for j := rng.Intn(2 * nTails); j > 0; j-- {
			if err := g.AddEdge(kg.Edge{
				Head: head, Relation: rels[rng.Intn(len(rels))], Tail: fmt.Sprintf("i:t%02d", rng.Intn(nTails)),
				Behavior: know.CoBuy, Domain: catalog.Category("outdoor"),
				PlausibleScore: scores[rng.Intn(len(scores))], TypicalScore: scores[rng.Intn(len(scores))],
				Support: 1 + rng.Intn(5),
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return g
}

// TestIntentionsEncoderMatchesReference holds the column encoder to the
// At + Node reference, byte for byte, on random graphs both frozen in
// process and mapped from a written artifact, for k below, at and above
// every row's length.
func TestIntentionsEncoderMatchesReference(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		frozen := randomIntentionsGraph(t, rng).Freeze()
		path := filepath.Join(t.TempDir(), "kg.cosmo")
		if err := kg.WriteSnapshotFile(path, frozen); err != nil {
			t.Fatal(err)
		}
		mapped, err := kg.MapSnapshotFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, snap := range []*kg.Snapshot{frozen, mapped} {
			for _, n := range snap.Nodes() {
				seq := snap.IntentionsFor(n.ID)
				for _, k := range []int{1, seq.Len() - 1, seq.Len(), seq.Len() + 1} {
					want := appendIntentionsTailReference(nil, snap, seq, k)
					if got := appendIntentionsTail(nil, seq, k); !bytes.Equal(got, want) {
						t.Fatalf("trial %d, %s, k=%d:\n got %s\nwant %s", trial, n.ID, k, got, want)
					}
				}
			}
		}
		if err := mapped.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEncodersAllocFree pins the steady-state allocation contract of
// the hot encoders: with a pre-sized destination, encoding a response
// allocates nothing. Skipped under -race (sync.Pool drops items there).
func TestEncodersAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool deliberately drops items under -race")
	}
	snap := testSnapshot(t)
	f := Feature{
		Query: "tent", Intents: []string{"camping"}, Relations: []string{"USED_FOR_FUNC"},
		SubCategory: "tent", Version: 2, CreatedAt: time.Date(2026, 8, 8, 0, 0, 0, 0, time.UTC),
	}
	id := []byte("p:P1")
	q := []byte("tent")
	matches := []kg.SimilarMatch{{ID: "i:a", Label: "camping", Score: 0.5}}
	dst := make([]byte, 0, 1<<16)
	var sink []byte

	// Warm the snapshot's scratch pool.
	sink = AppendRelatedJSON(dst, snap, id, 10)

	cases := []struct {
		name string
		fn   func() []byte
	}{
		{"queued", func() []byte { return AppendQueuedJSON(dst, "tent") }},
		{"queued-bytes", func() []byte { return AppendQueuedJSON(dst, q) }},
		{"feature", func() []byte { return AppendFeatureJSON(dst, &f) }},
		{"intentions", func() []byte { return AppendIntentionsJSON(dst, snap, "q:tent", 10) }},
		{"intentions-bytes", func() []byte { return AppendIntentionsJSON(dst, snap, id, 10) }},
		{"related", func() []byte { return AppendRelatedJSON(dst, snap, "p:P1", 10) }},
		{"related-bytes", func() []byte { return AppendRelatedJSON(dst, snap, id, 10) }},
		{"similar", func() []byte { return AppendSimilarJSON(dst, "tent", matches) }},
		{"kg", func() []byte { return AppendKGJSON(dst, snap) }},
	}
	for _, tc := range cases {
		if n := testing.AllocsPerRun(200, func() { sink = tc.fn() }); n != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", tc.name, n)
		}
	}
	_ = sink
}
