package cluster

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"cosmo/internal/catalog"
	"cosmo/internal/kg"
	"cosmo/internal/relations"
	"cosmo/internal/serving"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/metric_names.golden")

// labelKey matches one label name in a series' {...} part.
var labelKey = regexp.MustCompile(`([A-Za-z_][A-Za-z0-9_]*)="`)

// seriesNames lists each series on a /metrics page as name{key,...}
// (label keys in page order, values dropped), one line per distinct
// shape, sorted, each prefixed with page.
func seriesNames(page, body string) []string {
	seen := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		series, _, _ := strings.Cut(line, " ")
		name, labels, hasLabels := strings.Cut(series, "{")
		if hasLabels {
			var keys []string
			for _, m := range labelKey.FindAllStringSubmatch(labels, -1) {
				keys = append(keys, m[1])
			}
			name += "{" + strings.Join(keys, ",") + "}"
		}
		seen[page+" "+name] = true
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// TestMetricNamesGolden pins every series name and its label keys on
// the two /metrics pages — a node with a resilient responder serving a
// generation loaded from an artifact (snapshot and similarity index), and a
// router over three nodes — against testdata/metric_names.golden.
// Values are not pinned. go test -run MetricNamesGolden -update
// rewrites the golden after a deliberate change.
func TestMetricNamesGolden(t *testing.T) {
	g := kg.New()
	g.AddNode(kg.Node{ID: "i:used_for:camping", Type: kg.NodeIntention, Label: "camping"})
	g.AddNode(kg.Node{ID: "p:P1", Type: kg.NodeProduct, Label: "tent"})
	if err := g.AddEdge(kg.Edge{Head: "p:P1", Relation: relations.UsedForEve, Tail: "i:used_for:camping",
		Domain: catalog.Sports, PlausibleScore: 0.9, TypicalScore: 0.8, Support: 1}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "kg.cosmo")
	if err := kg.WriteSnapshotFile(path, g.Freeze()); err != nil {
		t.Fatal(err)
	}
	model := serving.ContextResponderFunc(func(_ context.Context, q string) (serving.Feature, error) {
		return serving.Feature{Query: q}, nil
	})
	node := serving.NewDeploymentContext(serving.DeployConfig{}, serving.NewResilient(model, serving.ResilienceConfig{}))
	gen, err := (&serving.Artifact{Path: path}).Load(node)
	if err != nil {
		t.Fatal(err)
	}
	defer gen.Snap.Close()
	node.Install(gen)
	srv := httptest.NewServer(serving.NewHTTPHandler(node))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	nodePage, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	var specs []NodeSpec
	for i := 0; i < 3; i++ {
		specs = append(specs, NodeSpec{Name: fmt.Sprintf("n%d", i), Backend: okBackend("ok")})
	}
	r, err := New(specs, Config{Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Do(context.Background(), Request{Key: "camping", Path: "/intent", RawQuery: "q=camping"}); err != nil {
		t.Fatal(err)
	}
	var routerPage bytes.Buffer
	r.WriteMetrics(&routerPage)

	got := strings.Join(append(seriesNames("node", string(nodePage)), seriesNames("router", routerPage.String())...), "\n") + "\n"
	golden := filepath.Join("testdata", "metric_names.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("metric names moved (go test -run MetricNamesGolden -update ./internal/cluster rewrites the golden):\ngot:\n%s\nwant:\n%s", got, want)
	}
}
