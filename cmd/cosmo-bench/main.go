// Command cosmo-bench regenerates the tables and figures of the paper's
// evaluation section, printing measured values next to the paper's
// reported values.
//
// Usage:
//
//	cosmo-bench -list
//	cosmo-bench -exp table6
//	cosmo-bench -all [-scale 4]
//	cosmo-bench -exp serving -json bench.json
//	cosmo-bench -scalebench 1,10,100 -json BENCH_6.json
//	cosmo-bench -wirebench -json BENCH_8.json
//
// With -json, each experiment run is also measured (wall time and heap
// allocations around the run, with the shared pipeline world built
// before the clock starts) and the results are written to the given
// path as a JSON array of {name, ns_per_op, allocs_per_op, workers},
// one element per experiment, so CI can archive the perf trajectory.
//
// With -scalebench, the snapshot-persistence scale harness runs
// instead: for each factor the Stage 8 expansion harness
// (experiments.ScaledKG) grows the world's KG to ≥ factor× its edge
// count, and the persistence pipeline is measured end to end — Freeze
// time, binary pack time and size, O(read) load time, resident heap
// bytes per edge, and hot-query latency on the loaded snapshot. The
// records land in -json so CI tracks the persistence trajectory as the
// graph approaches paper scale.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"cosmo/internal/experiments"
	"cosmo/internal/kg"
)

// benchResult is one experiment's measurement in the -json output. An
// "op" is one full experiment run.
type benchResult struct {
	Name        string `json:"name"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp uint64 `json:"allocs_per_op"`
	Workers     int    `json:"workers"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("cosmo-bench: ")

	list := flag.Bool("list", false, "list available experiments")
	exp := flag.String("exp", "", "experiment to run (see -list)")
	all := flag.Bool("all", false, "run every experiment")
	scale := flag.Int("scale", 4, "workload scale divisor (1 = largest laptop-scale run)")
	workers := flag.Int("workers", 0, "worker-pool size for the pipeline's parallel stages (0 = GOMAXPROCS); never changes results")
	jsonOut := flag.String("json", "", "write per-experiment timing/allocation measurements to this path")
	scaleBench := flag.String("scalebench", "", "comma-separated KG scale factors (e.g. 1,10,100): run the snapshot persistence harness instead of experiments")
	wireBench := flag.Bool("wirebench", false, "run the serving wire benchmarks (stdlib vs pooled encoders, batch, ANN) instead of experiments")
	mmapBench := flag.Int("mmapbench", 0, "KG scale factor (e.g. 100): compare ReadSnapshot (heap read, verified up front) vs MapSnapshot (mmap, verified on touch) cold start and footprint instead of experiments")
	flag.Parse()

	if *list {
		for _, name := range experiments.Names() {
			fmt.Println(name)
		}
		return
	}
	r := experiments.NewRunner(os.Stdout, *scale)
	r.Workers = *workers

	if *scaleBench != "" {
		if err := runScaleBench(r, *scaleBench, *jsonOut); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *wireBench {
		if err := runWireBench(r, *jsonOut); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *mmapBench > 0 {
		if err := runMmapBench(r, *mmapBench, *jsonOut); err != nil {
			log.Fatal(err)
		}
		return
	}

	var names []string
	switch {
	case *all:
		names = experiments.Names()
	case *exp != "":
		names = []string{*exp}
	default:
		log.Fatal("specify -exp <name>, -all, or -list")
	}

	if *jsonOut == "" {
		for _, name := range names {
			if err := r.Run(name); err != nil {
				log.Fatal(err)
			}
			fmt.Println()
		}
		return
	}

	// Measured mode: build the shared world (and its frozen KG snapshot)
	// before the clock starts so measurements cover the experiments
	// themselves, not the one-time pipeline run.
	r.World()
	resolvedWorkers := *workers
	if resolvedWorkers <= 0 {
		resolvedWorkers = runtime.GOMAXPROCS(0)
	}
	results := make([]benchResult, 0, len(names))
	for _, name := range names {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		if err := r.Run(name); err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		fmt.Println()
		results = append(results, benchResult{
			Name:        name,
			NsPerOp:     elapsed.Nanoseconds(),
			AllocsPerOp: after.Mallocs - before.Mallocs,
			Workers:     resolvedWorkers,
		})
	}
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s (%d experiments)", *jsonOut, len(results))
}

// scaleResult is one factor's measurement in the -scalebench output:
// the full persistence pipeline (freeze → pack → load) plus hot-query
// latency on the loaded snapshot.
type scaleResult struct {
	Name             string  `json:"name"`
	Factor           int     `json:"factor"`
	Nodes            int     `json:"nodes"`
	Edges            int     `json:"edges"`
	FreezeNs         int64   `json:"freeze_ns"`
	PackNs           int64   `json:"pack_ns"`
	LoadNs           int64   `json:"load_ns"`
	SnapshotBytes    int     `json:"snapshot_bytes"`
	BytesPerEdge     float64 `json:"bytes_per_edge"`
	HeapBytesPerEdge float64 `json:"heap_bytes_per_edge"`
	IntentionsNsOp   int64   `json:"intentions_ns_per_op"`
	RelatedNsOp      int64   `json:"related_ns_per_op"`
	Workers          int     `json:"workers"`
}

// runScaleBench drives the snapshot persistence harness: build a
// scaled KG, freeze it, pack it to the binary format, load it back in
// O(read), and measure every leg plus query latency on the result.
func runScaleBench(r *experiments.Runner, factors, jsonOut string) error {
	var fs []int
	for _, part := range strings.Split(factors, ",") {
		f, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || f < 1 {
			return fmt.Errorf("cosmo-bench: bad scale factor %q", part)
		}
		fs = append(fs, f)
	}
	r.World() // build the shared world outside every measurement
	results := make([]scaleResult, 0, len(fs))
	for _, factor := range fs {
		g, err := r.ScaledKG(factor)
		if err != nil {
			return err
		}

		start := time.Now()
		snap, err := g.FreezeChecked()
		if err != nil {
			return err
		}
		freezeNs := time.Since(start).Nanoseconds()

		var buf bytes.Buffer
		start = time.Now()
		if err := snap.WriteSnapshot(&buf); err != nil {
			return err
		}
		packNs := time.Since(start).Nanoseconds()

		// Load cost and resident footprint: GC fences isolate the heap
		// delta attributable to the loaded snapshot.
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start = time.Now()
		loaded, err := kg.ReadSnapshot(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return err
		}
		loadNs := time.Since(start).Nanoseconds()
		runtime.GC()
		runtime.ReadMemStats(&after)
		heapDelta := float64(0)
		if after.HeapAlloc > before.HeapAlloc {
			heapDelta = float64(after.HeapAlloc - before.HeapAlloc)
		}

		if loaded.NumEdges() != snap.NumEdges() || loaded.NumNodes() != snap.NumNodes() {
			return fmt.Errorf("cosmo-bench: round trip mismatch at factor %d: %d/%d nodes, %d/%d edges",
				factor, loaded.NumNodes(), snap.NumNodes(), loaded.NumEdges(), snap.NumEdges())
		}

		// Hot-query latency over a deterministic sample of product heads.
		var heads []string
		for _, n := range loaded.Nodes() {
			if n.Type == kg.NodeProduct {
				heads = append(heads, n.ID)
				if len(heads) == 512 {
					break
				}
			}
		}
		var intentionsNs, relatedNs int64
		if len(heads) > 0 {
			const reps = 4
			start = time.Now()
			for rep := 0; rep < reps; rep++ {
				for _, h := range heads {
					seq := loaded.IntentionsFor(h)
					for i := 0; i < seq.Len(); i++ {
						_ = seq.At(i)
					}
				}
			}
			intentionsNs = time.Since(start).Nanoseconds() / int64(reps*len(heads))
			start = time.Now()
			for rep := 0; rep < reps; rep++ {
				for _, h := range heads {
					loaded.RelatedProducts(h, 10)
				}
			}
			relatedNs = time.Since(start).Nanoseconds() / int64(reps*len(heads))
		}

		edges := loaded.NumEdges()
		res := scaleResult{
			Name:          fmt.Sprintf("snapshot_scale_%dx", factor),
			Factor:        factor,
			Nodes:         loaded.NumNodes(),
			Edges:         edges,
			FreezeNs:      freezeNs,
			PackNs:        packNs,
			LoadNs:        loadNs,
			SnapshotBytes: buf.Len(),
			Workers:       runtime.GOMAXPROCS(0),
		}
		if edges > 0 {
			res.BytesPerEdge = float64(buf.Len()) / float64(edges)
			res.HeapBytesPerEdge = heapDelta / float64(edges)
		}
		res.IntentionsNsOp = intentionsNs
		res.RelatedNsOp = relatedNs
		results = append(results, res)
		fmt.Printf("%-20s %9d edges  freeze %8.2fms  pack %8.2fms  load %8.2fms  %6.1f B/edge (file) %6.1f B/edge (heap)  intentions %6dns  related %8dns\n",
			res.Name, edges, float64(freezeNs)/1e6, float64(packNs)/1e6, float64(loadNs)/1e6,
			res.BytesPerEdge, res.HeapBytesPerEdge, intentionsNs, relatedNs)
		runtime.KeepAlive(loaded)
	}
	if jsonOut == "" {
		return nil
	}
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
		return err
	}
	log.Printf("wrote %s (%d scale points)", jsonOut, len(results))
	return nil
}
