package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"cosmo/internal/core"
	"cosmo/internal/kg"
	"cosmo/internal/llm"
)

// Sizing of one offline-build iteration: events and annotation budget
// chosen so an iteration takes about half a second on the reference
// machine and a run fits some twenty of them.
const (
	offlineEvents     = 2000
	offlineBudget     = 500
	smokeEvents       = 600
	smokeBudget       = 150
	offlineMinBuilds  = 5
	offlineProductsPT = 8
)

// stageNames maps the prefix of each core.Config.Logf progress line to
// the stage that ends when the line is logged.
var stageNames = []struct{ prefix, stage string }{
	{"world:", "core.world_ms"},
	{"sampled:", "core.sample_ms"},
	{"generated", "core.generate_ms"},
	{"filter kept", "core.filter_ms"},
	{"annotated", "core.annotate_ms"},
	{"kg: admitted", "core.critic_assemble_ms"},
	{"instruction data", "core.instruct_train_ms"},
	{"kg expansion", "core.expand_ms"},
	{"canonicalized", "core.canonicalize_ms"},
}

// buildStats is one offline iteration: events -> 8 stages -> Freeze ->
// pack -> map + Verify -> first answers.
type buildStats struct {
	total, toDisk                            time.Duration
	freeze, pack, mmap, verify, firstTouch   time.Duration
	stages                                   map[string]time.Duration
	edges, nodes                             int
	fileBytes                                int64
	stamp                                    kg.SnapshotStamp
	raw, kept, annotated, admitted, expanded int
	teacher, cosmoLM                         llm.CostSnapshot
}

type offlineSize struct{ events, budget int }

// offlineBuild runs one iteration and leaves the artifact at path. With
// timeStages it records the stage boundaries the pipeline logs. A non-nil
// liveHeap receives the GC-fenced live heap at the end of the build,
// while the pipeline result and the mapped artifact are still reachable.
func offlineBuild(path string, seed int64, size offlineSize, timeStages bool, liveHeap *float64) (*buildStats, error) {
	st := &buildStats{stages: map[string]time.Duration{}}
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.Behavior.Seed = seed
	cfg.Catalog.ProductsPerType = offlineProductsPT
	cfg.Behavior.CoBuyEvents = size.events
	cfg.Behavior.SearchEvents = size.events
	cfg.AnnotationBudget = size.budget
	cfg.Workers = runtime.NumCPU()
	t0 := now()
	if timeStages {
		last := t0
		cfg.Logf = func(format string, args ...any) {
			t := now()
			for _, sn := range stageNames {
				if strings.HasPrefix(format, sn.prefix) {
					st.stages[sn.stage] = t.Sub(last)
					last = t
				}
			}
			if strings.HasPrefix(format, "kg: admitted") && len(args) == 3 {
				if n, ok := args[2].(int); ok {
					st.admitted = n
				}
			}
		}
	}
	res, err := core.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	t := now()
	snap := res.KG.Freeze()
	st.freeze = since(t)
	t = now()
	if err := kg.WriteSnapshotFile(path, snap); err != nil {
		return nil, fmt.Errorf("pack: %w", err)
	}
	st.pack = since(t)
	st.toDisk = since(t0)
	if snap.NumEdges() == 0 {
		return nil, fmt.Errorf("pipeline produced an empty KG")
	}
	head := snap.Edges()[0].Head

	t = now()
	mapped, err := kg.MapSnapshotFile(path)
	if err != nil {
		return nil, fmt.Errorf("map: %w", err)
	}
	st.mmap = since(t)
	t = now()
	if err := mapped.Verify(); err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	st.verify = since(t)
	t = now()
	if mapped.IntentionsFor(head).Len() == 0 {
		return nil, fmt.Errorf("first answer: head %q has no intentions in the mapped artifact", head)
	}
	mapped.RelatedProducts(head, 10)
	st.firstTouch = since(t)
	st.total = since(t0)

	if liveHeap != nil {
		*liveHeap = liveHeapMiB()
	}
	st.edges, st.nodes = mapped.NumEdges(), mapped.NumNodes()
	if err := mapped.Close(); err != nil {
		return nil, fmt.Errorf("unmap: %w", err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	st.fileBytes = fi.Size()
	if st.stamp, err = kg.StampSnapshotFile(path); err != nil {
		return nil, fmt.Errorf("stamp: %w", err)
	}
	st.raw, st.kept, st.annotated = res.RawCandidates, len(res.Kept), len(res.AnnotatedCandidates)
	st.expanded = res.ExpandedEdges
	st.teacher, st.cosmoLM = res.TeacherCost, res.CosmoLMCost
	return st, nil
}

// runOffline is the end-to-end run of offline-build. Set-up is the
// reference build that fixes the expected content fingerprint; every
// measured iteration must reproduce it.
func runOffline(ctx context.Context, workDir string, seed int64, dur time.Duration, size offlineSize) (*runResult, error) {
	res := &runResult{metrics: map[string]float64{}}
	path := filepath.Join(workDir, "offline.cosmo")
	var ref *buildStats
	var setupTimes []time.Duration
	for i := 0; i < setupRepeats; i++ {
		var heap float64
		st, err := offlineBuild(path, seed, size, false, &heap)
		if err != nil {
			return nil, err
		}
		ref = st
		setupTimes = append(setupTimes, st.total)
		res.metrics["live_heap_mb"] = heap
	}
	res.metrics["setup_s"] = medianDuration(setupTimes).Seconds()

	var memBefore, memAfter runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	phase := phaseResult{start: now()}
	var toDisk []time.Duration
	for n := 0; ctx.Err() == nil && (n < offlineMinBuilds || since(phase.start) < dur); n++ {
		t0 := now()
		st, err := offlineBuild(path, seed, size, false, nil)
		switch {
		case err != nil:
			res.notef("build %d failed: %v", n, err)
			phase.failed++
		case !st.stamp.SameContent(ref.stamp):
			res.notef("build %d: fingerprint %016x differs from the reference %016x", n, st.stamp.TableCRC, ref.stamp.TableCRC)
			phase.failed++
		default:
			phase.ok++
			phase.samples = append(phase.samples, sample{due: t0.Sub(phase.start), lat: st.total})
			toDisk = append(toDisk, st.toDisk)
		}
	}
	phase.elapsed = since(phase.start)
	runtime.ReadMemStats(&memAfter)
	// A build outlasts a measurement window, so each build is its own
	// window: lat_quiet_ms is the better decile of build times, and with
	// one builder capacity_quiet_rps can only be the rate that latency
	// sustains. capacity_rps is the independent reading: builds finished
	// over the time the phase took, fingerprinting included.
	lat := sortedDurations(phase.samples, latOf)
	perBuild := make([]float64, len(lat))
	for i, d := range lat {
		perBuild[i] = ms(d)
	}
	res.metrics["lat_quiet_ms"] = quietDecile(perBuild, true)
	res.metrics["capacity_quiet_rps"] = 1000 / res.metrics["lat_quiet_ms"]
	res.metrics["lat_p50_ms"] = ms(quantile(lat, 0.5))
	res.metrics["capacity_rps"] = float64(phase.ok) / phase.elapsed.Seconds()
	res.metrics["build_s"] = medianDuration(toDisk).Seconds()
	res.metrics["teacher_ms_per_edge"] = ref.teacher.SimulatedMs / float64(ref.edges)
	res.metrics["artifact_bytes_per_edge"] = float64(ref.fileBytes) / float64(ref.edges)
	res.metrics["allocs_per_op"] = float64(memAfter.Mallocs-memBefore.Mallocs) / float64(phase.attempted())
	res.attempted = setupRepeats + phase.attempted()
	res.failed = phase.failed
	res.notef("offline: %d builds in %v (%d failed), one op = events -> artifact -> first answers (build_s: events -> artifact on disk); slowest %.2f ms",
		phase.attempted(), phase.elapsed.Round(time.Millisecond), phase.failed, ms(quantile(lat, 1)))
	res.notef("         %d edges, %d nodes, %d bytes, fingerprint %016x on every build; teacher_ms_per_edge and artifact_bytes_per_edge are exact for a seed",
		ref.edges, ref.nodes, ref.fileBytes, ref.stamp.TableCRC)
	res.settle()
	return res, nil
}
