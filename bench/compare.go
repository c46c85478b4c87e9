package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// bounded is one metric -compare judges: an end_to_end entry of
// BENCHMARK.json or one of the harness's guarded metrics.
type bounded struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json -compare reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []bounded `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp benchSpec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

// quartiles are Python's statistics.quantiles(values, n=4), the rule the
// driver uses.
func quartiles(values []float64) (q1, q2, q3 float64) {
	xs := append([]float64(nil), values...)
	sort.Float64s(xs)
	m := len(xs)
	if m == 1 {
		return xs[0], xs[0], xs[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// summary is one side's runs of one workload x metric.
type summary struct {
	n              int
	median, spread float64 // spread is (q3 - q1) / median
}

func summarize(rf *resultsFile, workload, metric string) summary {
	var vals []float64
	for _, r := range rf.Runs {
		if r.Workload == workload && r.Trace == 0 {
			if v, ok := r.Metrics[metric]; ok {
				vals = append(vals, v.Value)
			} else if v, ok := r.Guarded[metric]; ok {
				vals = append(vals, v.Value)
			}
		}
	}
	if len(vals) == 0 {
		return summary{}
	}
	q1, q2, q3 := quartiles(vals)
	s := summary{n: len(vals), median: q2}
	if q2 != 0 {
		s.spread = (q3 - q1) / q2
	}
	return s
}

// verdict applies the guide's rule to one workload x metric: the change
// (b) regressed if its median is worse than the base's (a) by more than
// the bound; where either side's own spread is wider than the bound the
// pair is unresolved, not unchanged.
func verdict(a, b summary, better string, bound float64) (worse float64, v string) {
	if a.n == 0 || b.n == 0 || a.median == 0 {
		return 0, "missing"
	}
	worse = (b.median - a.median) / a.median
	if better == "higher" {
		worse = -worse
	}
	switch {
	case a.spread > bound || b.spread > bound:
		return worse, "unresolved"
	case worse > bound:
		return worse, "regressed"
	}
	return worse, "ok"
}

// failRatio is failed over attempted, summed over one side's
// end-to-end runs of a workload.
func failRatio(rf *resultsFile, workload string) (ratio float64, runs int) {
	failed, attempted := 0, 0
	for _, r := range rf.Runs {
		if r.Workload == workload && r.Trace == 0 {
			failed += r.Failed
			attempted += r.Attempted
			runs++
		}
	}
	if attempted == 0 {
		return 0, runs
	}
	return float64(failed) / float64(attempted), runs
}

// compareFiles prints, per workload x end-to-end metric, both medians,
// the ratio with its base, each side's spread, the bound and the
// verdict: first the metrics of BENCHMARK.json, then the guarded ones
// that apply to the workload, then fail_ratio, which is 0 at the seed
// commit and is therefore held to maxFailRatio itself, not to a ratio.
// It returns 1 when any pair is not ok.
func compareFiles(stdout, stderr io.Writer, specPath, pathA, pathB string) int {
	sp, err := readSpec(specPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	a, err := readResults(pathA)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	b, err := readResults(pathB)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "a = %s (%s, nproc %d, %s)\nb = %s (%s, nproc %d, %s)\n",
		pathA, a.GitRev, a.Nproc, a.GoVersion, pathB, b.GitRev, b.Nproc, b.GoVersion)
	fmt.Fprintf(stdout, "%-20s %-24s %14s %14s %-11s %22s %8s %8s %6s  %s\n",
		"workload", "metric", "a median", "b median", "unit", "b/a (base a)", "spread a", "spread b", "bound", "verdict")
	bad := 0
	for _, w := range sp.Workloads {
		rows := append([]bounded(nil), sp.EndToEnd...)
		if def := findWorkload(w.Name); def != nil {
			for _, g := range guarded {
				if g.on(def) {
					rows = append(rows, bounded{g.name, g.unit, g.better, g.bound})
				}
			}
		}
		for _, m := range rows {
			sa, sb := summarize(a, w.Name, m.Name), summarize(b, w.Name, m.Name)
			_, v := verdict(sa, sb, m.Better, m.Bound)
			ratio := "n/a"
			if sa.median != 0 {
				ratio = fmt.Sprintf("%.4f of %.6g", sb.median/sa.median, sa.median)
			}
			fmt.Fprintf(stdout, "%-20s %-24s %14.6g %14.6g %-11s %22s %8.4f %8.4f %6.2f  %s (n=%d,%d; %s is better)\n",
				w.Name, m.Name, sa.median, sb.median, m.Unit, ratio, sa.spread, sb.spread, m.Bound, v, sa.n, sb.n, m.Better)
			if v != "ok" {
				bad++
			}
		}
		fa, na := failRatio(a, w.Name)
		fb, nb := failRatio(b, w.Name)
		v := "ok"
		switch {
		case na == 0 || nb == 0:
			v = "missing"
		case fb > maxFailRatio && fb > fa:
			v = "regressed"
		}
		fmt.Fprintf(stdout, "%-20s %-24s %14.6g %14.6g %-11s %22s %8s %8s %6.3f  %s (n=%d,%d; failed / attempted over all runs, bound is absolute)\n",
			w.Name, "fail_ratio", fa, fb, "ratio", "n/a", "", "", maxFailRatio, v, na, nb)
		if v != "ok" {
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d workload x metric pairs are not ok\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "every workload x metric pair is ok")
	return 0
}
