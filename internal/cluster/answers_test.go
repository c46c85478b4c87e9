package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"cosmo/internal/kg"
	"cosmo/internal/serving"
)

// TestRouterAnswersMatchSingleNode is the router's answer oracle without
// faults: three nodes at replication 2 serving one generation answer
// every KG query exactly as one node does on its own — status,
// Content-Type and body bytes. /intent is left out (each node's cache
// state is its own) and /batch is not routed.
func TestRouterAnswersMatchSingleNode(t *testing.T) {
	snap := hopSnapshot(t)
	gen := serving.NewGeneration(snap, kg.SnapshotStamp{})
	newNode := func() *serving.Deployment {
		dep := newLocalDeployment(t)
		dep.Install(gen)
		return dep
	}
	specs := make([]NodeSpec, 3)
	for i := range specs {
		specs[i] = NodeSpec{Name: fmt.Sprintf("n%d", i), Backend: NewLocalBackend(newNode())}
	}
	r, err := New(specs, Config{Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	r.CheckHealth(context.Background())
	if n := r.EligibleNodes(); n != 3 {
		t.Fatalf("eligible = %d, want 3", n)
	}
	routed := NewHTTPHandler(r)
	lone := serving.NewHTTPHandler(newNode())

	keys := []string{"p:NOSUCH", "", "  ", "p:Prodüct", "露营", "camping outdoors"}
	for _, n := range snap.Nodes() {
		keys = append(keys, n.ID, n.Label)
	}
	var queries []string
	for _, k := range []string{"", "&k=1", "&k=5", "&k=1000"} {
		queries = append(queries, "/kg?"+k[min(1, len(k)):])
		for _, key := range keys {
			esc := url.QueryEscape(key)
			queries = append(queries,
				"/intentions?id="+esc+k,
				"/related?id="+esc+k,
				"/similar?q="+esc+k)
		}
	}

	serve := func(h http.Handler, target string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		return rec
	}
	nonEmpty := 0
	for _, q := range queries {
		got, want := serve(routed, q), serve(lone, q)
		if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") ||
			!bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("%s: router %d %q %q, lone node %d %q %q", q,
				got.Code, got.Header().Get("Content-Type"), got.Body.Bytes(),
				want.Code, want.Header().Get("Content-Type"), want.Body.Bytes())
		}
		if want.Code == http.StatusOK && want.Body.Len() > 40 {
			nonEmpty++
		}
	}
	if nonEmpty < len(queries)/4 {
		t.Fatalf("only %d of %d answers carry results", nonEmpty, len(queries))
	}
}
