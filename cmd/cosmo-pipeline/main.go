// Command cosmo-pipeline runs the COSMO offline knowledge-generation
// pipeline end to end (Figure 2 of the paper) and writes the resulting
// knowledge graph to disk.
//
// Usage:
//
//	cosmo-pipeline [-seed N] [-events N] [-budget N] [-workers N]
//	               [-out kg.cosmo] [-jsonl kg.jsonl] [-tsv kg.tsv]
//
// The finished graph is frozen once; that snapshot feeds the stats line
// and every output. -out writes the versioned binary snapshot (.cosmo)
// that cosmo-serve -snapshot and cosmo-kg load with no re-indexing — the
// build side of the build-once/serve-many artifact path.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"

	"cosmo/internal/core"
	"cosmo/internal/instruction"
	"cosmo/internal/kg"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cosmo-pipeline: ")

	seed := flag.Int64("seed", 42, "master random seed")
	events := flag.Int("events", 20000, "behavior events per type (co-buy and search-buy)")
	budget := flag.Int("budget", 3000, "annotation budget")
	workers := flag.Int("workers", 0, "worker-pool size for the parallel stages (0 = GOMAXPROCS); never changes the output")
	out := flag.String("out", "", "write the frozen knowledge graph as a binary snapshot (.cosmo) to this path")
	jsonl := flag.String("jsonl", "", "write the knowledge graph (JSON lines) to this path")
	tsv := flag.String("tsv", "", "write the knowledge graph (TSV) to this path")
	instr := flag.String("instructions", "", "write the instruction dataset (JSON lines) to this path")
	flag.Parse()

	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	cfg.Behavior.CoBuyEvents = *events
	cfg.Behavior.SearchEvents = *events
	cfg.AnnotationBudget = *budget
	cfg.Workers = *workers
	cfg.Logf = log.Printf

	res, err := core.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	snap, err := res.KG.FreezeChecked()
	if err != nil {
		log.Fatal(err)
	}
	stats := snap.ComputeStats()
	fmt.Printf("pipeline complete: %d nodes, %d edges, %d relations, %d domains\n",
		stats.Nodes, stats.Edges, stats.Relations, stats.Domains)
	fmt.Printf("annotation audit accuracy: %.3f\n", res.AuditAccuracy)
	fmt.Printf("teacher cost: %.0f simulated ms over %d calls\n",
		res.TeacherCost.SimulatedMs, res.TeacherCost.Calls)
	fmt.Printf("COSMO-LM: %d tails learned, %d edges from expansion\n",
		res.CosmoLM.KnownTails(), res.ExpandedEdges)

	write := func(path string, fn func(w io.Writer) error) {
		if path == "" {
			return
		}
		if err := kg.PublishFile(path, fn); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", path)
	}
	if *out != "" {
		if err := kg.WriteSnapshotFile(*out, snap); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("packed %s (%d nodes, %d edges)\n", *out, snap.NumNodes(), snap.NumEdges())
	}
	write(*jsonl, snap.WriteJSONL)
	write(*tsv, snap.WriteTSV)
	write(*instr, func(w io.Writer) error {
		return instruction.WriteJSONL(w, res.Instruction)
	})
}
