package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestGeneratorDeterminism(t *testing.T) {
	const nHeads, nQueries, n = 5000, 600, 200000
	mix := []mixEntry{{epIntentions, 1}}
	a, b := genOps(7, mix, nHeads, nQueries, n), genOps(7, mix, nHeads, nQueries, n)
	if seqHash(a) != seqHash(b) {
		t.Fatal("the same seed gave two request sequences")
	}
	if seqHash(a) == seqHash(genOps(8, mix, nHeads, nQueries, n)) {
		t.Fatal("two seeds gave the same request sequence")
	}
	// The hottest key's share under Zipf(s, v=1) over nHeads ranks.
	var norm float64
	for k := 0; k < nHeads; k++ {
		norm += math.Pow(1+float64(k), -zipfS)
	}
	want := (1 - unknownRate) / norm
	head, unknown := 0, 0
	for _, o := range a {
		switch {
		case o.key == 0:
			head++
		case o.key >= nHeads:
			unknown++
		}
	}
	if got := float64(head) / n; math.Abs(got-want) > 0.1*want {
		t.Errorf("head share %.4f, want %.4f within 10%%", got, want)
	}
	if got := float64(unknown) / n; math.Abs(got-unknownRate) > 0.2*unknownRate {
		t.Errorf("unknown share %.4f, want %.4f within 20%%", got, unknownRate)
	}
	lookups := genOps(7, lookupMix, nHeads, nQueries, n)
	count := map[endpoint]int{}
	for _, o := range lookups {
		count[o.ep]++
	}
	for _, m := range lookupMix {
		if got := float64(count[m.ep]) / n; math.Abs(got-m.share) > 0.01 {
			t.Errorf("endpoint %d share %.3f, want %.3f", m.ep, got, m.share)
		}
	}
}

// The open loop's due times come from the schedule alone: a generator
// whose every tenth response stalls is given the same due times as one
// that is never stalled, and the stall shows in the latency of the
// requests queued behind it.
func TestOpenScheduleIgnoresResponses(t *testing.T) {
	const rate, dur = 500, 200 * time.Millisecond
	respond := func(stallEvery int) opFunc {
		return func(ctx context.Context, i int, check bool) (time.Time, outcome, int) {
			if stallEvery > 0 && i%stallEvery == 0 {
				time.Sleep(6 * time.Millisecond)
			}
			return now(), outOK, 0
		}
	}
	dues := func(p phaseResult) map[time.Duration]bool {
		m := map[time.Duration]bool{}
		for _, s := range p.samples {
			m[s.due] = true
		}
		return m
	}
	fast := runOpen(context.Background(), dur, 1, rate, 0, checkEvery, respond(0))
	slow := runOpen(context.Background(), dur, 1, rate, 0, checkEvery, respond(10))
	want := int(int64(rate) * int64(dur) / int64(time.Second))
	if len(fast.samples) != want || len(slow.samples) != want {
		t.Fatalf("sent %d and %d operations, want %d", len(fast.samples), len(slow.samples), want)
	}
	fd, sd := dues(fast), dues(slow)
	for k := 0; k < want; k++ {
		if due := openSchedule(k, rate); !fd[due] || !sd[due] {
			t.Fatalf("slot %d (due %v) missing: fast %v, slow %v", k, due, fd[due], sd[due])
		}
	}
	// One worker, 2 ms between slots, a 6 ms stall: the two requests due
	// during the stall wait for it, and are timed from when they were due.
	late := 0
	for _, s := range slow.samples {
		if s.lat > 2*time.Millisecond && s.lag > time.Millisecond {
			late++
		}
	}
	if late == 0 {
		t.Error("no request queued behind a stall was charged the wait")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31.0 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	base := summary{n: 10, median: 100, spread: 0.02}
	for _, c := range []struct {
		b      summary
		better string
		want   string
	}{
		{summary{n: 10, median: 104, spread: 0.02}, "lower", "ok"},
		{summary{n: 10, median: 111, spread: 0.02}, "lower", "regressed"},
		{summary{n: 10, median: 111, spread: 0.02}, "higher", "ok"},
		{summary{n: 10, median: 89, spread: 0.02}, "higher", "regressed"},
		{summary{n: 10, median: 100, spread: 0.2}, "lower", "unresolved"},
		{summary{}, "lower", "missing"},
	} {
		if _, got := verdict(base, c.b, c.better, 0.1); got != c.want {
			t.Errorf("verdict(%v, %s) = %s, want %s", c.b, c.better, got, c.want)
		}
	}
}

func specNames(defs []metricDef) map[string]string {
	m := map[string]string{}
	for _, d := range defs {
		m[d.name] = d.unit
	}
	return m
}

// BENCHMARK.json and spec.go name the same workloads and metrics with
// the same units.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, spec.go %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in spec.go", i, w.Name, workloads[i].name)
		}
	}
	e2e, layers := specNames(endToEnd), specNames(perLayer)
	if len(sp.EndToEnd) != len(e2e) || len(sp.PerLayer) != len(layers) {
		t.Errorf("BENCHMARK.json has %d + %d metrics, spec.go %d + %d", len(sp.EndToEnd), len(sp.PerLayer), len(e2e), len(layers))
	}
	for _, m := range sp.EndToEnd {
		if unit, ok := e2e[m.Name]; !ok || unit != m.Unit {
			t.Errorf("end_to_end %s [%s]: spec.go has %q (present %v)", m.Name, m.Unit, unit, ok)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range sp.PerLayer {
		if unit, ok := layers[m.Name]; !ok || unit != m.Unit {
			t.Errorf("per_layer %s [%s]: spec.go has %q (present %v)", m.Name, m.Unit, unit, ok)
		}
	}
}

// The smoke run drives every workload through both runs on a tiny world
// and checks the driver's contract on each final line: exactly the
// metrics BENCHMARK.json names for that run, each with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the whole stack nine times")
	}
	if raceEnabled {
		t.Skip("the open loop's fixed rates are calibrated for a build without the race detector")
	}
	var stdout, stderr bytes.Buffer
	out := filepath.Join(t.TempDir(), "runs.json")
	code := run([]string{"-smoke", "-seconds", "1", "-workdir", t.TempDir(), "-outdir", t.TempDir(), "-out", out}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d\nstderr: %s\nstdout: %s", code, stderr.String(), stdout.String())
	}
	type seen struct{ e2e, traced bool }
	ran := map[string]*seen{}
	var current string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "== "); ok {
			current, _, _ = strings.Cut(rest, ",")
			continue
		}
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var rec resultLine
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("%s: final line is not JSON: %v", current, err)
		}
		if !rec.Correct || rec.Attempted < 1 || rec.Failed != 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", current, rec.Correct, rec.Attempted, rec.Failed)
		}
		if ran[current] == nil {
			ran[current] = &seen{}
		}
		want := specNames(perLayer)
		_, isE2E := rec.Metrics["setup_s"]
		if isE2E {
			want = specNames(endToEnd)
			ran[current].e2e = true
		} else {
			ran[current].traced = true
		}
		for name, v := range rec.Metrics {
			if unit, ok := want[name]; !ok || unit != v.Unit {
				t.Errorf("%s: unexpected metric %s [%s]", current, name, v.Unit)
			}
			// An end-to-end metric is never 0; a layer count may be.
			if math.IsNaN(v.Value) || v.Value < 0 || (isE2E && v.Value == 0) {
				t.Errorf("%s: %s = %v", current, name, v.Value)
			}
		}
		for name := range want {
			if _, ok := rec.Metrics[name]; !ok {
				t.Errorf("%s: metric %s missing", current, name)
			}
		}
	}
	for _, w := range workloads {
		if s := ran[w.name]; s == nil || !s.e2e || !s.traced {
			t.Errorf("workload %s: runs seen %+v, want end-to-end and traced", w.name, s)
		}
	}

	// The results file carries, per end-to-end run, the guarded metrics
	// that apply to the workload and no others; comparing the file with
	// itself judges every one of them.
	rf, err := readResults(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rf.Runs {
		w := findWorkload(r.Workload)
		for _, g := range guarded {
			v, ok := r.Guarded[g.name]
			if want := r.Trace == 0 && g.on(w); ok != want {
				t.Errorf("%s trace %d: guarded %s present %v, want %v", r.Workload, r.Trace, g.name, ok, want)
			} else if ok && (v.Unit != g.unit || v.Value <= 0) {
				t.Errorf("%s: guarded %s = %v [%s]", r.Workload, g.name, v.Value, v.Unit)
			}
		}
	}
	stdout.Reset()
	if code := compareFiles(&stdout, &stderr, "../BENCHMARK.json", out, out); code != 0 {
		t.Errorf("-compare of a results file with itself: exit code %d\n%s", code, stdout.String())
	}
	for _, name := range []string{"lat_p99_ms", "swap_stall_ms", "build_s", "teacher_ms_per_edge", "artifact_bytes_per_edge", "fail_ratio"} {
		if !strings.Contains(stdout.String(), " "+name+" ") {
			t.Errorf("-compare has no row for %s", name)
		}
	}
}
