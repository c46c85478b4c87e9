package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// sharedRunner caches the pipeline world across tests.
var sharedRunner *Runner

func runner(tb testing.TB) (*Runner, *bytes.Buffer) {
	tb.Helper()
	buf := &bytes.Buffer{}
	if sharedRunner == nil {
		sharedRunner = NewRunner(buf, 20)
	}
	sharedRunner.Out = buf
	return sharedRunner, buf
}

func TestNamesComplete(t *testing.T) {
	names := Names()
	want := []string{
		"table1", "table2", "table3", "table4", "table5", "table6",
		"figure7", "table7", "table8", "table9", "figure8", "abtest",
		"serving", "latency",
		"ablation-filter", "ablation-sampling", "ablation-tasks", "ablation-cache",
		"limitation-flashsale", "baseline-folkscope", "future-rewrites",
	}
	if len(names) != len(want) {
		t.Fatalf("got %d experiments, want %d", len(names), len(want))
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("names[%d] = %q, want %q", i, names[i], want[i])
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	r, _ := runner(t)
	if err := r.Run("nope"); err == nil {
		t.Error("unknown experiment should error")
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/cheap.golden")

// measuredLine starts the one line of the cheap set that prints a wall
// time (Figure 5's handler latency); the golden keeps only its prefix.
const measuredLine = "request latency (measured /intent handler)"

// TestCheapExperiments runs every experiment except the three that train
// downstream neural models (covered by the benchmarks), requires every
// "shape check:" line they print to read true, and compares the whole
// scale-20 output with testdata/cheap.golden. go test -run
// CheapExperiments ./internal/experiments -args -update rewrites the
// golden after a deliberate change.
func TestCheapExperiments(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden floats are pinned on amd64: other targets may fuse multiply-adds and legitimately differ (ROADMAP item 19)")
	}
	r, buf := runner(t)
	cheap := []string{
		"table1", "table2", "table3", "table4", "table5", "table7",
		"table9", "figure8", "abtest", "serving", "latency",
		"ablation-filter", "ablation-sampling", "ablation-tasks", "ablation-cache",
		"limitation-flashsale", "baseline-folkscope", "future-rewrites",
	}
	var got strings.Builder
	for _, name := range cheap {
		buf.Reset()
		if err := r.Run(name); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&got, "--- %s ---\n", name)
		for _, line := range strings.SplitAfter(buf.String(), "\n") {
			if strings.HasPrefix(line, "shape check:") && strings.Contains(line, "false") {
				t.Errorf("%s: %s", name, strings.TrimSpace(line))
			}
			if strings.HasPrefix(line, measuredLine) {
				line = measuredLine + " <measured>\n"
			}
			got.WriteString(line)
		}
	}
	golden := filepath.Join("testdata", "cheap.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("cheap experiments' output moved (go test -run CheapExperiments ./internal/experiments -args -update rewrites the golden):\n%s",
			firstDiff(got.String(), string(want)))
	}
}

// firstDiff names the first line where got and want part.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\ngot:  %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}

func TestTable4ShapeHolds(t *testing.T) {
	r, buf := runner(t)
	buf.Reset()
	if err := r.Run("table4"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "search-buy typicality > co-buy typicality = true") {
		t.Errorf("Table 4 shape check failed:\n%s", buf.String())
	}
}

func TestServingShapeHolds(t *testing.T) {
	r, buf := runner(t)
	buf.Reset()
	if err := r.Run("serving"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "hit rate > 80% = true") {
		t.Errorf("serving hit-rate shape failed:\n%s", out)
	}
	if !strings.Contains(out, "cached latency ≪ inline inference = true") {
		t.Errorf("serving latency shape failed:\n%s", out)
	}
}

// stepClock advances 50ms on every Now: every request the Figure 5
// handler times measures 50ms.
type stepClock struct{ t time.Time }

func (c *stepClock) Now() time.Time {
	c.t = c.t.Add(50 * time.Millisecond)
	return c.t
}

// TestServingLatencyCheckCanFail: Figure 5's latency check reads the
// measured /intent handler time, so a node whose handler takes 50ms
// fails it — the check is not pinned to a constant.
func TestServingLatencyCheckCanFail(t *testing.T) {
	r, buf := runner(t)
	buf.Reset()
	dep, err := r.servingOn(&stepClock{})
	if err != nil {
		t.Fatal(err)
	}
	if p99 := dep.Latency("intent").Quantile(0.99); p99 < 48 {
		t.Errorf("intent p99 = %vms under a 50ms step, want >= 48ms", p99)
	}
	if out := buf.String(); !strings.Contains(out, "cached latency ≪ inline inference = false") {
		t.Errorf("a 50ms handler passed the latency check:\n%s", out)
	}
}

func TestABTestShapeHolds(t *testing.T) {
	r, buf := runner(t)
	buf.Reset()
	if err := r.Run("abtest"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "positive small lift=true") {
		t.Errorf("A/B shape failed:\n%s", buf.String())
	}
}
