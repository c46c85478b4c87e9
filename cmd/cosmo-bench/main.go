// Command cosmo-bench regenerates the tables and figures of the paper's
// evaluation section, printing measured values next to the paper's
// reported values.
//
// Usage:
//
//	cosmo-bench -list
//	cosmo-bench -exp table6
//	cosmo-bench -all [-scale 4]
//	cosmo-bench -mmapbench 100 [-json BENCH_9.json]
//
// With -mmapbench, the artifact benchmark runs instead of the
// experiments: the Stage 8 expansion harness (experiments.ScaledKG)
// grows the world's KG to ≥ factor× its edge count, times Freeze and
// the pack to a .cosmo file, and compares the heap and mmap loaders on
// that file (see mmapbench.go). -json writes that record; it has no
// meaning without -mmapbench. Serving and per-layer costs are measured
// by the benchmark harness in bench/.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"cosmo/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cosmo-bench: ")

	list := flag.Bool("list", false, "list available experiments")
	exp := flag.String("exp", "", "experiment to run (see -list)")
	all := flag.Bool("all", false, "run every experiment")
	scale := flag.Int("scale", 4, "workload scale divisor (1 = largest laptop-scale run)")
	workers := flag.Int("workers", 0, "worker-pool size for the pipeline's parallel stages (0 = GOMAXPROCS); never changes results")
	jsonOut := flag.String("json", "", "write the -mmapbench record to this path")
	mmapBench := flag.Int("mmapbench", 0, "KG scale factor (e.g. 100): time Freeze and pack, then compare cold start and footprint of ReadSnapshot (heap read) and MapSnapshot (mmap), both verified up front, instead of experiments")
	flag.Parse()

	if *jsonOut != "" && *mmapBench <= 0 {
		log.Fatal("-json writes the -mmapbench record; pass -mmapbench <factor> with it")
	}
	if *list {
		for _, name := range experiments.Names() {
			fmt.Println(name)
		}
		return
	}
	r := experiments.NewRunner(os.Stdout, *scale)
	r.Workers = *workers

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
	for _, name := range names {
		if err := r.Run(name); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
}
