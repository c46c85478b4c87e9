// Command cosmo-kg inspects a knowledge-graph artifact: the packed
// .cosmo binary snapshot written by cosmo-pipeline -out. It maps the
// file, whose loader verifies every section checksum and the full
// structure before returning (this is the tool that gets pointed at
// artifacts of unknown provenance), and serves every query from the
// frozen snapshot.
//
// Usage:
//
//	cosmo-kg -in kg.cosmo stats
//	cosmo-kg -in kg.cosmo lookup <head-node-id>
//	cosmo-kg -in kg.cosmo related <product-node-id>
//	cosmo-kg -in kg.cosmo -min 2 hierarchy
//	cosmo-kg -in kg.cosmo -tsv out.tsv -jsonl out.jsonl export
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	"cosmo/internal/catalog"
	"cosmo/internal/kg"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cosmo-kg: ")

	in := flag.String("in", "", "packed .cosmo snapshot (from cosmo-pipeline -out)")
	minSupport := flag.Int("min", 2, "hierarchy minimum edge support")
	tsv := flag.String("tsv", "", "TSV destination for the export command")
	jsonl := flag.String("jsonl", "", "JSONL destination for the export command")
	flag.Parse()

	if *in == "" || flag.NArg() < 1 {
		log.Fatal("usage: cosmo-kg -in kg.cosmo <stats|lookup|related|hierarchy|export> [args]")
	}
	snap, err := kg.MapSnapshotFile(*in)
	if err != nil {
		log.Fatal(err)
	}

	switch flag.Arg(0) {
	case "stats":
		s := snap.ComputeStats()
		fmt.Printf("nodes: %d\nedges: %d\nrelations: %d\ndomains: %d\n",
			s.Nodes, s.Edges, s.Relations, s.Domains)
		for _, cat := range sortedKeys(s) {
			ds := s.PerDomain[catalog.Category(cat)]
			fmt.Printf("  %-30s co-buy=%d search-buy=%d\n", cat, ds.CoBuyEdges, ds.SearchBuyEdges)
		}
	case "lookup":
		if flag.NArg() < 2 {
			log.Fatal("lookup requires a node id (e.g. 'q:camping' or 'p:P000001')")
		}
		head := flag.Arg(1)
		seq := snap.IntentionsFor(head)
		if seq.Len() == 0 {
			fmt.Println("no intentions for", head)
			return
		}
		for i := 0; i < seq.Len(); i++ {
			e := seq.At(i)
			tail, _ := snap.Node(e.Tail)
			fmt.Printf("%-16s %-40s plausible=%.3f typical=%.3f support=%d\n",
				e.Relation, tail.Label, e.PlausibleScore, e.TypicalScore, e.Support)
		}
	case "related":
		if flag.NArg() < 2 {
			log.Fatal("related requires a product node id (e.g. 'p:P000001')")
		}
		for _, rel := range snap.RelatedProducts(flag.Arg(1), 10) {
			fmt.Printf("%-12s %-45s score=%.2f via %v\n",
				rel.ProductID, rel.Label, rel.Score, rel.Via)
		}
	case "hierarchy":
		roots := snap.BuildHierarchy(*minSupport)
		fmt.Printf("%d hierarchy roots\n", len(roots))
		n := 10
		if n > len(roots) {
			n = len(roots)
		}
		for _, root := range roots[:n] {
			fmt.Print(root.Render(2))
		}
	case "export":
		if *tsv == "" && *jsonl == "" {
			log.Fatal("export requires -tsv <path> and/or -jsonl <path> (flags go before the command)")
		}
		exportTo(*tsv, snap.WriteTSV)
		exportTo(*jsonl, snap.WriteJSONL)
	default:
		log.Fatalf("unknown command %q", flag.Arg(0))
	}
}

// exportTo writes one export format to path (no-op when path is empty),
// surfacing write and close errors.
func exportTo(path string, write func(io.Writer) error) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := write(f); err != nil {
		f.Close() //cosmo:lint-ignore dropped-error already on the fatal path; the write error is the root cause
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote", path)
}

func sortedKeys(s kg.Stats) []string {
	out := make([]string, 0, len(s.PerDomain))
	for cat := range s.PerDomain {
		out = append(out, string(cat))
	}
	sort.Strings(out)
	return out
}
