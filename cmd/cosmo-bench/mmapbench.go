// The -mmapbench harness: ReadSnapshot (whole file read onto the heap)
// vs MapSnapshot (file mapped) on the ScaledKG artifact. Both alias the
// same image through the same decoder, which verifies every section
// before it returns, so both cold starts include verification and the
// comparison isolates what mapping is for — the copy it skips and the
// resident footprint per edge. The Freeze and pack that produce the
// artifact are timed on the way.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"cosmo/internal/experiments"
	"cosmo/internal/kg"
)

// mmapResult is one loader's measurement in the BENCH_9 output.
type mmapResult struct {
	Name             string  `json:"name"`
	Factor           int     `json:"factor"`
	Nodes            int     `json:"nodes"`
	Edges            int     `json:"edges"`
	FileBytes        int64   `json:"file_bytes"`
	ColdStartNs      int64   `json:"cold_start_ns"`
	FirstQueryNs     int64   `json:"first_query_ns"`
	IntentionsNsOp   int64   `json:"intentions_ns_per_op"`
	RelatedNsOp      int64   `json:"related_ns_per_op"`
	HeapBytes        uint64  `json:"heap_bytes"`
	HeapBytesPerEdge float64 `json:"heap_bytes_per_edge"`
	RSSBytes         int64   `json:"rss_bytes"` // /proc/self/smaps_rollup delta; -1 where unavailable
	RSSBytesPerEdge  float64 `json:"rss_bytes_per_edge"`
	Mapped           bool    `json:"mapped"` // false on the portable fallback build
}

// mmapSummary is the headline comparison record appended to the two
// loader records, with the build-side cost of the artifact they load.
type mmapSummary struct {
	Name              string  `json:"name"`
	Factor            int     `json:"factor"`
	Edges             int     `json:"edges"`
	FreezeNs          int64   `json:"freeze_ns"` // FreezeChecked of the scaled graph
	PackNs            int64   `json:"pack_ns"`   // WriteSnapshotFile: the encode and the file write
	ColdStartSpeedup  float64 `json:"cold_start_speedup"`
	FirstAnswerNsHeap int64   `json:"ns_to_first_answer_heap"`
	FirstAnswerNsMmap int64   `json:"ns_to_first_answer_mmap"`
	HeapReduction     float64 `json:"heap_bytes_per_edge_reduction"`
}

// readRSS returns the process resident set in bytes from
// /proc/self/smaps_rollup (Linux), or ok=false where the file (or the
// Rss field) is unavailable.
func readRSS() (int64, bool) {
	f, err := os.Open("/proc/self/smaps_rollup")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Rss:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0, false
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0, false
		}
		return kb << 10, true
	}
	return 0, false
}

// sampleHeads returns a deterministic sample of product heads for the
// hot-query measurements.
func sampleHeads(s *kg.Snapshot, n int) []string {
	var heads []string
	for _, node := range s.Nodes() {
		if node.Type == kg.NodeProduct {
			heads = append(heads, node.ID)
			if len(heads) == n {
				break
			}
		}
	}
	return heads
}

// measureLoader runs one loader through the cold-start / first-query /
// footprint protocol. load must construct a fully usable snapshot from
// the path; the returned snapshot is closed here.
func measureLoader(name string, factor int, path string, fileBytes int64,
	load func(string) (*kg.Snapshot, error)) (mmapResult, error) {
	res := mmapResult{Name: name, Factor: factor, FileBytes: fileBytes, RSSBytes: -1}

	// GC fences isolate the heap delta attributable to the loaded
	// snapshot; RSS is sampled at the same fence points. Two cycles per
	// fence: sync.Pool contents survive one collection in the victim
	// cache and would otherwise bleed between the two loader runs.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	rssBefore, rssOK := readRSS()

	start := time.Now()
	s, err := load(path)
	if err != nil {
		return res, err
	}
	res.ColdStartNs = time.Since(start).Nanoseconds()

	// First query: the price of the first answer out of a fresh loader.
	// Both loaders verified everything during their cold start, so this
	// is pure lookup.
	heads := sampleHeads(s, 512)
	if len(heads) == 0 {
		s.Close() //cosmo:lint-ignore dropped-error already on the error path
		return res, fmt.Errorf("cosmo-bench: no product heads at factor %d", factor)
	}
	start = time.Now()
	seq := s.IntentionsFor(heads[0])
	for i := 0; i < seq.Len(); i++ {
		_ = seq.At(i)
	}
	res.FirstQueryNs = time.Since(start).Nanoseconds()

	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if after.HeapAlloc > before.HeapAlloc {
		res.HeapBytes = after.HeapAlloc - before.HeapAlloc
	}
	if rssAfter, ok := readRSS(); ok && rssOK && rssAfter > rssBefore {
		res.RSSBytes = rssAfter - rssBefore
	}

	res.Nodes, res.Edges = s.NumNodes(), s.NumEdges()
	res.Mapped = s.Mapped()
	if res.Edges > 0 {
		res.HeapBytesPerEdge = float64(res.HeapBytes) / float64(res.Edges)
		if res.RSSBytes >= 0 {
			res.RSSBytesPerEdge = float64(res.RSSBytes) / float64(res.Edges)
		}
	}

	// Steady-state hot-query latency over the sampled heads.
	const reps = 4
	start = time.Now()
	for rep := 0; rep < reps; rep++ {
		for _, h := range heads {
			seq := s.IntentionsFor(h)
			for i := 0; i < seq.Len(); i++ {
				_ = seq.At(i)
			}
		}
	}
	res.IntentionsNsOp = time.Since(start).Nanoseconds() / int64(reps*len(heads))
	start = time.Now()
	for rep := 0; rep < reps; rep++ {
		for _, h := range heads {
			s.RelatedProducts(h, 10)
		}
	}
	res.RelatedNsOp = time.Since(start).Nanoseconds() / int64(reps*len(heads))

	if err := s.Close(); err != nil {
		return res, err
	}
	return res, nil
}

// runMmapBench freezes the ScaledKG world and packs it into a .cosmo
// artifact, timing both steps, and runs the heap and mmap loaders
// through the same protocol.
func runMmapBench(r *experiments.Runner, factor int, jsonOut string) error {
	r.World() // build the shared world outside every measurement
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
	dir, err := os.MkdirTemp("", "cosmo-mmapbench")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "kg.cosmo")
	start = time.Now()
	if err := kg.WriteSnapshotFile(path, snap); err != nil {
		return err
	}
	packNs := time.Since(start).Nanoseconds()
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	// Drop the builder state — including the runner's cached world —
	// so the loader measurements start from a quiet heap and a GC
	// cycle landing inside a timed window has nothing big to mark.
	snap, g = nil, nil
	_, _ = snap, g
	r.DropWorld()
	runtime.GC()

	heap, err := measureLoader("snapshot_heap", factor, path, fi.Size(), kg.ReadSnapshotFile)
	if err != nil {
		return err
	}
	mapped, err := measureLoader("snapshot_mmap", factor, path, fi.Size(), kg.MapSnapshotFile)
	if err != nil {
		return err
	}

	summary := mmapSummary{
		Name:              "mmap_vs_heap",
		Factor:            factor,
		Edges:             mapped.Edges,
		FreezeNs:          freezeNs,
		PackNs:            packNs,
		FirstAnswerNsHeap: heap.ColdStartNs + heap.FirstQueryNs,
		FirstAnswerNsMmap: mapped.ColdStartNs + mapped.FirstQueryNs,
	}
	if mapped.ColdStartNs > 0 {
		summary.ColdStartSpeedup = float64(heap.ColdStartNs) / float64(mapped.ColdStartNs)
	}
	if mapped.HeapBytesPerEdge > 0 {
		summary.HeapReduction = heap.HeapBytesPerEdge / mapped.HeapBytesPerEdge
	}

	fmt.Printf("artifact factor %d: freeze %v, pack %v (write included)\n",
		factor, time.Duration(freezeNs), time.Duration(packNs))
	for _, res := range []mmapResult{heap, mapped} {
		fmt.Printf("%-14s factor %d: %d nodes / %d edges, file %.1f MiB\n",
			res.Name, res.Factor, res.Nodes, res.Edges, float64(res.FileBytes)/(1<<20))
		fmt.Printf("  cold start %v, first query %v, heap %.1f B/edge",
			time.Duration(res.ColdStartNs), time.Duration(res.FirstQueryNs), res.HeapBytesPerEdge)
		if res.RSSBytes >= 0 {
			fmt.Printf(", rss %.1f B/edge", res.RSSBytesPerEdge)
		}
		fmt.Printf("\n  hot queries: IntentionsFor %d ns/op, RelatedProducts %d ns/op (mapped=%v)\n",
			res.IntentionsNsOp, res.RelatedNsOp, res.Mapped)
	}
	fmt.Printf("mmap vs heap: cold start %.1fx faster, heap footprint %.1fx smaller\n",
		summary.ColdStartSpeedup, summary.HeapReduction)

	if jsonOut == "" {
		return nil
	}
	out := struct {
		Loaders []mmapResult `json:"loaders"`
		Summary mmapSummary  `json:"summary"`
	}{Loaders: []mmapResult{heap, mapped}, Summary: summary}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(jsonOut, append(data, '\n'), 0o644)
}
