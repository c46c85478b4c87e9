package serving

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// sameValue is == with NaN equal to NaN.
func sameValue(a, b float64) bool { return a == b || math.IsNaN(a) && math.IsNaN(b) }

// parsePage writes e and parses it back.
func parsePage(t *testing.T, e *Exposition) []Sample {
	t.Helper()
	var page strings.Builder
	if _, err := e.WriteTo(&page); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseMetrics(strings.NewReader(page.String()))
	if err != nil {
		t.Fatalf("%v in:\n%s", err, page.String())
	}
	return samples
}

// TestExpositionRoundTrip writes one sample of each kind and a
// histogram block, checks the exact text, and parses it back.
func TestExpositionRoundTrip(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(7)
	var e Exposition
	e.Int("a_total", -3)
	e.Uint("b_total", math.MaxUint64, "node", `n"0`)
	e.Float("c_ratio", 0.25, "k", "x,y}", "j", "a\\b\nc")
	e.Bool("d_up", true)
	e.Float("e_inf", math.Inf(1))
	e.Histogram("lat_ms", h.Snapshot(), "endpoint", "intent")
	var page strings.Builder
	if _, err := e.WriteTo(&page); err != nil {
		t.Fatal(err)
	}
	want := `a_total -3
b_total{node="n\"0"} 18446744073709551615
c_ratio{k="x,y}",j="a\\b\nc"} 0.25
d_up 1
e_inf +Inf
lat_ms{endpoint="intent",quantile="0.5"} 2
lat_ms{endpoint="intent",quantile="0.99"} 2
lat_ms_bucket{endpoint="intent",le="1"} 1
lat_ms_bucket{endpoint="intent",le="2"} 2
lat_ms_bucket{endpoint="intent",le="+Inf"} 3
lat_ms_sum{endpoint="intent"} 9
lat_ms_count{endpoint="intent"} 3
`
	if page.String() != want {
		t.Fatalf("page:\n%s\nwant:\n%s", page.String(), want)
	}
	got := parsePage(t, &e)
	if len(got) != 12 {
		t.Fatalf("parsed %d samples, want 12", len(got))
	}
	if s := got[2]; s.Name != "c_ratio" || !reflect.DeepEqual(s.Labels, map[string]string{"k": "x,y}", "j": "a\\b\nc"}) || s.Value != 0.25 {
		t.Errorf("c_ratio parsed as %+v", s)
	}
	if s := got[1]; s.Labels["node"] != `n"0` || s.Value != math.MaxUint64 {
		t.Errorf("b_total parsed as %+v", s)
	}
	if s := got[9]; s.Name != "lat_ms_bucket" || s.Labels["le"] != "+Inf" || s.Value != 3 {
		t.Errorf("+Inf bucket parsed as %+v", s)
	}
}

// TestParseMetricsRejects: a line that is not a well-formed sample is an
// error naming its line; comments and blank lines are skipped.
func TestParseMetricsRejects(t *testing.T) {
	got, err := ParseMetrics(strings.NewReader("# HELP x\n\nx 1\nx:y{a=\"b\",} 2\n"))
	if err != nil || len(got) != 2 || got[1].Name != "x:y" || got[1].Labels["a"] != "b" {
		t.Fatalf("ParseMetrics = %+v, %v", got, err)
	}
	for _, line := range []string{
		"x", "x  1", "x 1 2", "x one", "{a=\"b\"} 1", "x{a=\"b\" 1", "x{a=b} 1",
		"x{a=\"b\"c=\"d\"} 1", "x{a=\"b} 1", "x{1a=\"b\"} 1", "x{a=\"b\"}1",
	} {
		if _, err := ParseMetrics(strings.NewReader("ok 1\n" + line + "\n")); err == nil || !strings.Contains(err.Error(), "line 2") {
			t.Errorf("ParseMetrics(%q) error = %v, want one at line 2", line, err)
		}
	}
}

// metricName maps s onto a valid metric or label name (each invalid
// byte becomes '_'): names are the caller's constants, so the fuzzer
// spends its time on label values and numbers.
func metricName(s string, colon bool) string {
	b := []byte("m" + s)
	for i := range b {
		if !validName(string(b[:i+1]), colon) {
			b[i] = '_'
		}
	}
	return string(b)
}

// FuzzMetricsRoundTrip: every sample Exposition writes — any name,
// label set and value — parses back through ParseMetrics to the same
// name, label pairs in order, and value. Label values carry the bytes a
// naive split-on-comma, trim-the-quotes parser gets wrong.
func FuzzMetricsRoundTrip(f *testing.F) {
	f.Add("cosmo_node_health", "node", "n0", "quantile", "0.99", 1.0)
	f.Add("x", "a", `quo"te`, "b", "com,ma", math.Inf(-1))
	f.Add("x_total", "a", `back\slash`, "b", "new\nline", math.NaN())
	f.Add("x", "a", `\"},{b="c"}`, "le", "+Inf", -0.0)
	f.Add("x", "a", "", "b", "\xff\x00", 1e308)
	f.Fuzz(func(t *testing.T, name, k1, v1, k2, v2 string, value float64) {
		name, k1, k2 = metricName(name, true), metricName(k1, false), metricName(k2, false)
		if k1 == k2 {
			k2 += "_"
		}
		var e Exposition
		e.Float(name, value, k1, v1, k2, v2)
		e.Float(name, value)
		got := parsePage(t, &e)
		if len(got) != 2 {
			t.Fatalf("parsed %d samples, want 2", len(got))
		}
		want := map[string]string{k1: v1, k2: v2}
		if s := got[0]; s.Name != name || !reflect.DeepEqual(s.Labels, want) || !sameValue(s.Value, value) {
			t.Fatalf("round trip: got %+v, want %s %q %v", s, name, want, value)
		}
		if s := got[1]; s.Name != name || s.Labels != nil || !sameValue(s.Value, value) {
			t.Fatalf("round trip without labels: got %+v, want %s %v", s, name, value)
		}
	})
}
