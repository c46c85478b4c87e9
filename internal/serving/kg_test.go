package serving

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"cosmo/internal/catalog"
	"cosmo/internal/kg"
	"cosmo/internal/know"
	"cosmo/internal/relations"
)

// testSnapshot freezes a tiny graph: one query node with two intentions
// of different typicality, and two products sharing the stronger one.
// Each extra label adds an intention of p:P2 only, so /related and the
// q:tent intentions answer as before.
func testSnapshot(t testing.TB, extra ...string) *kg.Snapshot {
	t.Helper()
	g := kg.New()
	g.AddNode(kg.Node{ID: "q:tent", Type: kg.NodeQuery, Label: "tent"})
	g.AddNode(kg.Node{ID: "p:P1", Type: kg.NodeProduct, Label: "dome tent"})
	g.AddNode(kg.Node{ID: "p:P2", Type: kg.NodeProduct, Label: "camping stove"})
	g.AddNode(kg.Node{ID: "i:a", Type: kg.NodeIntention, Label: "camping"})
	g.AddNode(kg.Node{ID: "i:b", Type: kg.NodeIntention, Label: "shade"})
	add := func(head, tail string, typ float64) {
		t.Helper()
		err := g.AddEdge(kg.Edge{
			Head: head, Relation: relations.UsedForEve, Tail: tail,
			Behavior: know.SearchBuy, Domain: catalog.Category("outdoor"),
			PlausibleScore: 0.9, TypicalScore: typ, Support: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	add("q:tent", "i:a", 0.9)
	add("q:tent", "i:b", 0.4)
	add("p:P1", "i:a", 0.8)
	add("p:P2", "i:a", 0.7)
	for _, label := range extra {
		g.AddNode(kg.Node{ID: "i:" + label, Type: kg.NodeIntention, Label: label})
		add("p:P2", "i:"+label, 0.5)
	}
	return g.Freeze()
}

// TestKGEndpointsUnavailable pins the 503 contract before Install.
func TestKGEndpointsUnavailable(t *testing.T) {
	d := NewDeploymentContext(DeployConfig{DailyCacheCap: 8}, echoResponder("v1"))
	srv := httptest.NewServer(NewHTTPHandler(d))
	defer srv.Close()

	for _, path := range []string{"/intentions?id=q:tent", "/related?id=p:P1", "/similar?q=tent", "/kg"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("GET %s before Install = %d, want 503", path, resp.StatusCode)
		}
	}
}

// TestKGEndpoints exercises the snapshot-backed read path end to end.
func TestKGEndpoints(t *testing.T) {
	d := NewDeploymentContext(DeployConfig{DailyCacheCap: 8}, echoResponder("v1"))
	d.Install(&Generation{Snap: testSnapshot(t)})
	srv := httptest.NewServer(NewHTTPHandler(d))
	defer srv.Close()

	getJSON := func(path string, out any) int {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatalf("decode %s: %v", path, err)
			}
		}
		return resp.StatusCode
	}

	// Missing id is a client error.
	for _, path := range []string{"/intentions", "/related"} {
		if code := getJSON(path, nil); code != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400", path, code)
		}
	}

	var intentions struct {
		ID         string `json:"id"`
		Intentions []struct {
			Relation  string  `json:"relation"`
			Intention string  `json:"intention"`
			Typical   float64 `json:"typical"`
		} `json:"intentions"`
	}
	if code := getJSON("/intentions?id=q:tent", &intentions); code != http.StatusOK {
		t.Fatalf("GET /intentions = %d, want 200", code)
	}
	if len(intentions.Intentions) != 2 {
		t.Fatalf("got %d intentions, want 2", len(intentions.Intentions))
	}
	// Best-first: the snapshot rows are pre-sorted by typicality.
	if intentions.Intentions[0].Intention != "camping" || intentions.Intentions[1].Intention != "shade" {
		t.Errorf("intentions out of order: %+v", intentions.Intentions)
	}
	if intentions.Intentions[0].Typical < intentions.Intentions[1].Typical {
		t.Errorf("typicality not descending: %+v", intentions.Intentions)
	}

	// k truncates.
	if getJSON("/intentions?id=q:tent&k=1", &intentions); len(intentions.Intentions) != 1 {
		t.Errorf("k=1 returned %d intentions", len(intentions.Intentions))
	}

	// Unknown node: empty result, not an error.
	if code := getJSON("/intentions?id=q:nope", &intentions); code != http.StatusOK || len(intentions.Intentions) != 0 {
		t.Errorf("unknown id: code=%d n=%d, want 200 with 0", code, len(intentions.Intentions))
	}

	var related struct {
		ID      string       `json:"id"`
		Related []kg.Related `json:"related"`
	}
	if code := getJSON("/related?id=p:P1", &related); code != http.StatusOK {
		t.Fatalf("GET /related = %d, want 200", code)
	}
	if len(related.Related) != 1 || related.Related[0].ProductID != "p:P2" {
		t.Errorf("related = %+v, want [p:P2]", related.Related)
	}

	var summary struct {
		Nodes, Edges, Relations int
	}
	if code := getJSON("/kg", &summary); code != http.StatusOK {
		t.Fatalf("GET /kg = %d, want 200", code)
	}
	if summary.Nodes != 5 || summary.Edges != 4 || summary.Relations != 1 {
		t.Errorf("summary = %+v, want 5 nodes / 4 edges / 1 relation", summary)
	}

	// /metrics exposes the snapshot gauges once a snapshot is installed.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"cosmo_kg_nodes 5", "cosmo_kg_edges 4"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestDailyRefreshSwapsSnapshot pins the commit semantics: a refresh
// with a generation installs it whole, a refresh with nil keeps the
// serving one, and each shim kept for bench/ replaces only its half.
func TestDailyRefreshSwapsSnapshot(t *testing.T) {
	ctx := context.Background()
	d := NewDeploymentContext(DeployConfig{DailyCacheCap: 8}, echoResponder("v1"))
	first := NewGeneration(testSnapshot(t), kg.SnapshotStamp{})
	d.Install(first)

	if err := d.Refresh(ctx, echoResponder("v2"), nil, 4); err != nil {
		t.Fatal(err)
	}
	if g := d.Generation(); g.Snap != first.Snap || g.Sim != first.Sim {
		t.Fatal("a nil generation in Refresh must keep the current one")
	}
	second := NewGeneration(testSnapshot(t, "hiking"), kg.SnapshotStamp{})
	if err := d.Refresh(ctx, echoResponder("v3"), second, 4); err != nil {
		t.Fatal(err)
	}
	if g := d.Generation(); g.Snap != second.Snap || g.Sim != second.Sim || d.Version() != 3 {
		t.Fatal("Refresh did not install the new generation")
	}

	third := testSnapshot(t)
	d.SetKG(third)
	d.SetKG(nil) // a no-op, not a teardown
	if d.KG() != third || d.Similarity() != second.Sim {
		t.Fatal("SetKG must install the snapshot and keep the serving index")
	}
	d.SetSimilarity(first.Sim)
	d.SetSimilarity(nil)
	if d.KG() != third || d.Similarity() != first.Sim {
		t.Fatal("SetSimilarity must install the index and keep the serving snapshot")
	}
	fourth := testSnapshot(t)
	if err := d.DailyRefreshContext(ctx, echoResponder("v4"), fourth, 4); err != nil {
		t.Fatal(err)
	}
	if d.KG() != fourth || d.Similarity() != first.Sim || d.Version() != 4 {
		t.Fatal("DailyRefreshContext must install the snapshot and keep the serving index")
	}
	if err := d.DailyRefreshContext(ctx, echoResponder("v5"), nil, 4); err != nil {
		t.Fatal(err)
	}
	if d.KG() != fourth || d.Version() != 5 {
		t.Fatal("a nil snapshot in DailyRefreshContext must keep the current one")
	}
}

// TestKGSwapUnderLoad hammers the read path while refreshes swap
// generations, under -race: readers must always observe a complete
// generation (old or new), never a torn or nil view mid-flight, and
// never a snapshot paired with another snapshot's similarity index. The
// two snapshots index different intention sets, so a mixed pair shows as
// an index size that does not match the snapshot.
func TestKGSwapUnderLoad(t *testing.T) {
	gens := []*Generation{
		NewGeneration(testSnapshot(t), kg.SnapshotStamp{}),
		NewGeneration(testSnapshot(t, "hiking"), kg.SnapshotStamp{}),
	}
	intentions := map[*kg.Snapshot]int{}
	for _, g := range gens {
		for _, n := range g.Snap.Nodes() {
			if n.Type == kg.NodeIntention {
				intentions[g.Snap]++
			}
		}
	}
	if intentions[gens[0].Snap] == intentions[gens[1].Snap] {
		t.Fatal("the two snapshots must hold different intention sets")
	}
	d := NewDeploymentContext(DeployConfig{DailyCacheCap: 8}, echoResponder("v1"))
	d.Install(gens[0])

	const readers = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				g := d.Generation()
				if g.Snap == nil || g.Sim == nil {
					t.Error("Generation() returned an empty generation after Install")
					return
				}
				if got, want := g.Sim.NumIndexed(), intentions[g.Snap]; got != want {
					t.Errorf("generation pairs a %d-intention snapshot with a %d-intention index", want, got)
					return
				}
				seq := g.Snap.IntentionsFor("q:tent")
				if seq.Len() != 2 {
					t.Errorf("IntentionsFor len = %d, want 2", seq.Len())
					return
				}
				if got := g.Snap.RelatedProducts("p:P1", 4); len(got) != 1 {
					t.Errorf("RelatedProducts len = %d, want 1", len(got))
					return
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		responder := echoResponder(fmt.Sprintf("v%d", i+2))
		if err := d.Refresh(context.Background(), responder, gens[(i+1)%2], 4); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}
