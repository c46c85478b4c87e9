// Command bench is the repository's one benchmark: five named
// workloads over the whole stack, end-to-end metrics from an untraced
// run and per-layer metrics from a separate traced run. See README.md.
//
//	bash bench/run.sh --workload lookup-zipf --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh                       # every workload, both runs
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	smoke    bool
	out      string
	rev      string
	workDir  string
	outDir   string
	spec     string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run (default: all five, end-to-end then traced)")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same request sequence")
	fs.IntVar(&o.seconds, "seconds", 10, "seconds one run measures")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, no wrappers; 1: the traced run, per-layer metrics")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny world: checks the harness, not the system")
	fs.StringVar(&o.out, "out", "", "append each run to this results file (the input of -compare)")
	fs.StringVar(&o.rev, "rev", "unknown", "git revision recorded in -out")
	fs.StringVar(&o.workDir, "workdir", ".bench_build/work", "scratch directory for artifacts")
	fs.StringVar(&o.outDir, "outdir", "bench/out", "directory for trace-<workload>.json")
	fs.StringVar(&o.spec, "spec", "BENCHMARK.json", "benchmark contract read by -compare")
	compare := fs.Bool("compare", false, "compare two results files: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two results files")
			return 2
		}
		return compareFiles(stdout, stderr, o.spec, fs.Arg(0), fs.Arg(1))
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(stderr, "bench: -seconds must be at least 1, -trace 0 or 1")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(o.workDir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	o.workDir = dir

	type job struct {
		w     *workload
		trace int
	}
	var jobs []job
	if o.workload != "" {
		w := findWorkload(o.workload)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
			return 2
		}
		jobs = []job{{w, o.trace}}
	} else {
		for i := range workloads {
			jobs = append(jobs, job{&workloads[i], 0}, job{&workloads[i], 1})
		}
	}
	code := 0
	for _, j := range jobs {
		res, err := runOne(ctx, j.w, j.trace, o)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", j.w.name, err)
			return 1
		}
		rec := newRecord(j.w, j.trace, o, res)
		printRun(stdout, rec, res)
		if o.out != "" {
			if err := appendRecord(o.out, o.rev, rec); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
		}
		if !rec.Correct {
			code = 1
		}
	}
	return code
}

// setupRepeats is how often an end-to-end run sets the system up;
// setup_s is the median and the last set-up is the one measured. The
// benchmark contract asks for this: one set-up per run would be a
// single reading of a number that takes the whole of the host's noise.
const setupRepeats = 3

// runOne performs one run of one workload.
func runOne(ctx context.Context, w *workload, trace int, o options) (*runResult, error) {
	dur := time.Duration(o.seconds) * time.Second
	sz := fullSize
	if o.smoke {
		sz = smokeSize
	}
	switch {
	case trace == 1:
		return runTrace(ctx, o.workDir, o.outDir, w, o.seed, dur, sz)
	case w.route == routeOffline:
		return runOffline(ctx, o.workDir, o.seed, dur, sz.offline)
	}
	var s *stack
	var setups []time.Duration
	for i := 0; i < setupRepeats; i++ {
		if s != nil {
			s.Close()
			s = nil
			runtime.GC()
		}
		var err error
		if s, err = buildStack(o.workDir, stackOptions{scale: sz.scale, factor: sz.factor}); err != nil {
			return nil, err
		}
		setups = append(setups, s.timings.total)
	}
	defer s.Close()
	res := runOnline(ctx, s, w, o.seed, dur)
	res.metrics["setup_s"] = medianDuration(setups).Seconds()
	res.notef("set-up:  %d times, median %.3f s (world %.3f s + ScaledKG(%d) %.3f s + freeze, pack, map, 3 nodes, router, oracle): %d edges",
		setupRepeats, res.metrics["setup_s"], s.timings.world.Seconds(), sz.factor, s.timings.scale.Seconds(), s.oracle.NumEdges())
	return res, nil
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is one run as the driver reads it: the last line of
// standard output, with exactly these keys.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runRecord is one run as -out stores it. Guarded holds the guarded
// end-to-end metrics that apply to the workload; they are not part of
// the driver's result line.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    int    `json:"trace"`
	resultLine
	Guarded map[string]metricValue `json:"guarded,omitempty"`
}

func newRecord(w *workload, trace int, o options, res *runResult) runRecord {
	defs := endToEnd
	if trace == 1 {
		defs = perLayer
	}
	rec := runRecord{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: trace,
		resultLine: resultLine{
			Correct: res.correct, Attempted: res.attempted, Failed: res.failed,
			Metrics: map[string]metricValue{},
		},
	}
	for _, d := range defs {
		v := res.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v, rec.Correct = 0, false
		}
		rec.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if trace == 0 {
		rec.Guarded = map[string]metricValue{}
		for _, g := range guarded {
			if g.on(w) {
				rec.Guarded[g.name] = metricValue{Value: res.metrics[g.name], Unit: g.unit}
			}
		}
	}
	return rec
}

// printRun prints the run for a reader, then, as the last line, the
// JSON object the driver parses.
func printRun(w io.Writer, rec runRecord, res *runResult) {
	kind := "end-to-end"
	defs := endToEnd
	if rec.Trace == 1 {
		kind, defs = "traced", perLayer
	}
	fmt.Fprintf(w, "== %s, %s run: seed %d, %d s, nproc %d, %s\n", rec.Workload, kind, rec.Seed, rec.Seconds, runtime.NumCPU(), runtime.Version())
	for _, n := range res.notes {
		fmt.Fprintln(w, n)
	}
	for _, d := range defs {
		fmt.Fprintf(w, "%-32s %16.6g %s\n", d.name, rec.Metrics[d.name].Value, d.unit)
	}
	for _, g := range guarded {
		if v, ok := rec.Guarded[g.name]; ok {
			fmt.Fprintf(w, "%-32s %16.6g %s (guarded by -compare, not in the result line)\n", g.name, v.Value, g.unit)
		}
	}
	fmt.Fprintf(w, "fail_ratio %d/%d, correct=%v\n", rec.Failed, rec.Attempted, rec.Correct)
	line, err := json.Marshal(rec.resultLine)
	if err != nil {
		fmt.Fprintf(w, "bench: encode result: %v\n", err)
		return
	}
	fmt.Fprintf(w, "%s\n", line)
}

// resultsFile is a trajectory row or an A/A set: runs of one commit.
type resultsFile struct {
	GitRev    string      `json:"git_rev"`
	Nproc     int         `json:"nproc"`
	GoVersion string      `json:"go_version"`
	Runs      []runRecord `json:"runs"`
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultsFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

func appendRecord(path, rev string, rec runRecord) error {
	rf, err := readResults(path)
	if errors.Is(err, os.ErrNotExist) {
		rf = &resultsFile{GitRev: rev, Nproc: runtime.NumCPU(), GoVersion: runtime.Version()}
	} else if err != nil {
		return err
	}
	rf.Runs = append(rf.Runs, rec)
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
