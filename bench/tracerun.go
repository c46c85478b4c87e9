package main

import (
	"context"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"cosmo/internal/embedding"
	"cosmo/internal/kg"
	"cosmo/internal/serving"
	"cosmo/internal/wire"
)

// Shares of --seconds a trace run gives each segment. Every trace run
// measures every layer, so every per-layer metric is a real reading on
// every workload: the workload chooses the mix and seed of the routed
// segment, whether the rolling refresh runs beside it, and which
// segment is its own: the one loadgen.*, trace.overhead_ratio,
// trace.attributed_ratio, proc.allocs_per_op and the cache and router
// counts describe. Every other metric is a reading
// of its layer, the same measurement under every workload name.
const (
	traceWarmShare    = 0.05
	traceRoutedShare  = 0.25
	tracePlainShare   = 0.10
	traceBurstShare   = 0.05
	traceBatchShare   = 0.08
	traceBatchPlain   = 0.05
	traceProbeShare   = 0.25
	traceSwapShare    = 0.15
	traceSwapEvery    = 0.04
	traceStallWindow  = 0.03
	directProbeKeys   = 4096
	wireCorpusEntries = 256
)

// sink keeps the probes' results alive so the compiler cannot drop the
// calls being timed.
var sink int

// replay is one segment replayed twice over the same sequence by one
// closed-loop client: traced, then with the tracer off.
type replay struct {
	traced, plain phaseResult
	from, to      int    // span range of the traced half
	plainMallocs  uint64 // heap allocations during the untraced half
}

func replayPair(ctx context.Context, tr *tracer, fn opFunc, tracedDur, plainDur time.Duration) replay {
	var r replay
	r.from = tr.len()
	tr.on.Store(true)
	r.traced = runClosed(ctx, tracedDur, 1, 0, checkEvery, tr.wrap(fn))
	tr.on.Store(false)
	r.to = tr.len()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r.plain = runClosed(ctx, plainDur, 1, 0, checkEvery, fn)
	runtime.ReadMemStats(&after)
	r.plainMallocs = after.Mallocs - before.Mallocs
	return r
}

func p50(p phaseResult) time.Duration { return quantile(sortedDurations(p.samples, latOf), 0.5) }

// timeCalls calls fn(0), fn(1), ... for about dur, reading the clock
// once per 256 calls, and returns the mean nanoseconds per call.
func timeCalls(dur time.Duration, fn func(i int)) float64 {
	start := now()
	n := 0
	for since(start) < dur {
		for j := 0; j < 256; j++ {
			fn(n)
			n++
		}
	}
	return float64(since(start)) / float64(n)
}

// timePair times two functions over the same indices in alternating
// batches of 256 calls, so their difference compares like with like: b
// is the encoder, a the kg call inside it.
func timePair(dur time.Duration, a, b func(i int)) (nsA, nsB float64) {
	var ta, tb time.Duration
	start := now()
	n := 0
	for t := start; t.Sub(start) < dur; n += 256 {
		for j := 0; j < 256; j++ {
			a(n + j)
		}
		mid := now()
		for j := 0; j < 256; j++ {
			b(n + j)
		}
		end := now()
		ta, tb, t = ta+mid.Sub(t), tb+end.Sub(mid), end
	}
	return float64(ta) / float64(n), float64(tb) / float64(n)
}

// timeEach is timeCalls with one clock read per call, for operations
// long enough (>= tens of microseconds) that percentiles matter.
func timeEach(dur time.Duration, fn func(i int)) []time.Duration {
	var out []time.Duration
	start := now()
	for t := start; t.Sub(start) < dur; {
		fn(len(out))
		next := now()
		out = append(out, next.Sub(t))
		t = next
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// counters are the cumulative counts the nodes' caches and the router
// keep. A trace run reads them on both sides of each load segment and
// reports the difference over the workload's own segment, so that the
// probe calls and the other segments do not count as its traffic.
type counters struct {
	hits, misses, dropped, stale           float64
	requests, hedges, hedgeWins, failovers float64
}

func (s *stack) readCounters() counters {
	st := s.router.Stats()
	c := counters{
		requests: float64(st.Requests), hedges: float64(st.Hedges),
		hedgeWins: float64(st.HedgeWins), failovers: float64(st.Failovers),
	}
	for _, nd := range s.nodes {
		cs := nd.dep.Cache.Stats()
		c.hits += float64(cs.Hits)
		c.misses += float64(cs.Misses)
		c.dropped += float64(cs.BatchDropped)
		c.stale += float64(nd.dep.BatchTotals().StaleServed)
	}
	return c
}

func (c counters) minus(o counters) counters {
	return counters{
		c.hits - o.hits, c.misses - o.misses, c.dropped - o.dropped, c.stale - o.stale,
		c.requests - o.requests, c.hedges - o.hedges, c.hedgeWins - o.hedgeWins, c.failovers - o.failovers,
	}
}

// ratio is num / den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// cpuSeconds is the process's user + system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runTrace is the traced run: one set-up with stage timers, then the
// routed, batch, build, direct-call and swap segments.
func runTrace(ctx context.Context, workDir, outDir string, w *workload, seed int64, dur time.Duration, sz sizing) (*runResult, error) {
	res := &runResult{metrics: map[string]float64{}}
	m := res.metrics
	share := func(f float64) time.Duration { return time.Duration(f * float64(dur)) }
	nproc := runtime.NumCPU()
	var memStart runtime.MemStats
	runtime.ReadMemStats(&memStart)

	tr := newTracer()
	s, err := buildStack(workDir, stackOptions{scale: sz.scale, factor: sz.factor, tracer: tr})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	tm := s.timings
	edges := float64(s.oracle.NumEdges())
	m["setup.world_s"] = tm.world.Seconds()
	m["setup.scale_s"] = tm.scale.Seconds()
	m["kg.freeze_ms"] = ms(tm.freeze)
	m["kg.pack_ms"] = ms(tm.pack)
	m["kg.map_ms"] = ms(tm.mmap)
	m["kg.verify_ms"] = ms(tm.verify)
	m["kg.first_touch_ms"] = ms(tm.firstTouch)
	m["kg.ann_build_ms"] = ms(tm.annBuild)
	m["kg.heap_bytes_per_edge"] = tm.heapPerEdge
	m["kg.edges"] = edges
	m["kg.nodes"] = float64(s.oracle.NumNodes())
	m["kg.file_bytes"] = float64(tm.fileBytes)

	// Routed segment: the workload's own mix through the router, or the
	// lookup mix when the workload does not use the router.
	routedW := w
	if w.route != routeRouter {
		routedW = findWorkload("lookup-zipf")
	}
	seq := genOps(seed, routedW.mix, s.keys.nHeads, s.keys.nQueries, seqLen)
	routedFn := s.routedOp(seq)
	var rf *refresher
	if w.refresh {
		rf = s.startRefresher(ctx, share(refreshShare))
	}
	warm := runClosed(ctx, share(traceWarmShare), nproc, 0, 1, routedFn)
	beforeRouted := s.readCounters()
	routed := replayPair(ctx, tr, routedFn, share(traceRoutedShare), share(tracePlainShare))
	burst := runOpen(ctx, share(traceBurstShare), nproc, routedW.rateRPS, 0, checkEvery, routedFn)
	if rf != nil {
		rf.halt()
		res.failed += rf.errs
	}
	beforeBatch := s.readCounters()
	rs := tr.analyse(routed.from, routed.to)
	m["cluster.route_self_us"] = us(rs.routeSelf)
	m["cluster.attempt_us"] = us(rs.attempt)
	m["cluster.attempt_p99_us"] = us(rs.attemptP99)
	m["cluster.hop_us"] = us(rs.hop)
	m["serving.handler_us"] = us(rs.handler)
	m["serving.handler_p99_us"] = us(rs.handlerP99)
	respSizes := make([]int, 0, len(routed.traced.samples))
	for _, sm := range routed.traced.samples {
		respSizes = append(respSizes, sm.respBytes)
	}
	sort.Ints(respSizes)
	if len(respSizes) > 0 {
		m["wire.resp_bytes_p50"] = float64(respSizes[len(respSizes)/2])
	}

	// Batch segment: POST /batch straight at node 0.
	batchW := findWorkload("batch-direct")
	seqB := genOps(seed, batchW.mix, s.keys.nHeads, s.keys.nQueries, seqLen)
	batchFn := s.batchOp(seqB)
	warmB := runClosed(ctx, share(traceWarmShare)/2, nproc, 0, 1, batchFn)
	batch := replayPair(ctx, tr, batchFn, share(traceBatchShare), share(traceBatchPlain))
	afterBatch := s.readCounters()
	bs := tr.analyse(batch.from, batch.to)
	m["serving.batch_handler_us"] = us(bs.handler)
	m["serving.batch_lookups_per_s"] = float64(len(batch.plain.samples)*batchItems) / batch.plain.elapsed.Seconds()

	// Build segment: one iteration with stage timers, one without.
	builds, buildOverhead, buildAttributed, err := buildSegment(res, filepath.Join(workDir, "offline.cosmo"), seed, sz.offline)
	if err != nil {
		return nil, err
	}

	// The workload's own segment. A build sends no requests, so its
	// cache and router counts are 0.
	own, overhead, attributed := routed, 0.0, rs.attributed
	ownCounts := beforeBatch.minus(beforeRouted)
	switch w.route {
	case routeBatch:
		own, attributed = batch, bs.attributed
		ownCounts = afterBatch.minus(beforeBatch)
	case routeOffline:
		own, overhead, attributed = builds, buildOverhead, buildAttributed
		ownCounts = counters{}
	}
	if overhead == 0 && p50(own.plain) > 0 {
		overhead = float64(p50(own.traced)) / float64(p50(own.plain))
	}
	ownLat := sortedDurations(own.traced.samples, latOf)
	m["loadgen.sent"] = float64(own.traced.attempted())
	m["loadgen.ok"] = float64(own.traced.ok)
	m["loadgen.failed"] = float64(own.traced.failed)
	m["loadgen.queued_202"] = float64(own.traced.queued)
	m["loadgen.sched_lag_p99_ms"] = ms(quantile(sortedDurations(burst.samples, lagOf), 0.99))
	m["loadgen.lat_p99_ms"] = ms(quantile(ownLat, 0.99))
	m["loadgen.lat_p999_ms"] = ms(quantile(ownLat, 0.999))
	m["loadgen.lat_max_ms"] = ms(quantile(ownLat, 1))
	m["trace.overhead_ratio"] = overhead
	m["trace.attributed_ratio"] = attributed
	if n := len(own.plain.samples); n > 0 {
		m["proc.allocs_per_op"] = float64(own.plainMallocs) / float64(n)
	}

	s.directProbes(m, seed, seqB, share(traceProbeShare))

	// Swap segment: one closed-loop client while the nodes refresh in
	// turn; the stall is what that client sees right after a commit.
	swaps := s.startRefresher(ctx, share(traceSwapEvery))
	swapPhase := runClosed(ctx, share(traceSwapShare), 1, 0, checkEvery, routedFn)
	swaps.halt()
	stall, nSwaps := swapStall([]phaseResult{swapPhase}, swaps.commits, share(traceStallWindow))
	m["serving.swap_stall_ms"] = ms(stall)
	m["serving.refresh_ms"] = ms(medianDuration(swaps.durations))
	res.failed += swaps.errs

	m["cluster.hedges_per_req"] = ratio(ownCounts.hedges, ownCounts.requests)
	m["cluster.hedge_win_ratio"] = ratio(ownCounts.hedgeWins, ownCounts.hedges)
	m["cluster.failovers"] = ownCounts.failovers
	m["serving.cache_hit_ratio"] = ratio(ownCounts.hits, ownCounts.hits+ownCounts.misses)
	m["serving.queue_dropped"] = ownCounts.dropped
	m["serving.stale_served"] = ownCounts.stale

	var memEnd runtime.MemStats
	runtime.ReadMemStats(&memEnd)
	m["proc.gc_pause_ms"] = float64(memEnd.PauseTotalNs-memStart.PauseTotalNs) / 1e6
	m["proc.cpu_s"] = cpuSeconds()
	m["trace.spans"] = float64(tr.len())

	for _, p := range []phaseResult{warm, routed.traced, routed.plain, burst, warmB, batch.traced, batch.plain, builds.traced, swapPhase} {
		res.attempted += p.attempted()
		res.failed += p.failed
	}
	path, err := tr.write(outDir, w.name, seed)
	if err != nil {
		return nil, err
	}
	res.notef("trace: %d spans in %s; own segment %d requests, median %.1f us; routed segment: request %.1f us = route_self %.1f + hop %.1f + handler %.1f (attributed %.3f)",
		tr.len(), path, own.traced.attempted(), us(p50(own.traced)), us(rs.request), us(rs.routeSelf), us(rs.hop), us(rs.handler), rs.attributed)
	res.notef("swap:  %d swaps, %d with requests inside the %v window", len(swaps.commits), nSwaps, share(traceStallWindow))
	res.settle()
	return res, nil
}

// buildSegment runs one offline-build iteration with stage timers and
// one without, and fills the core, llm, cosmolm and artifact metrics.
// The replay it returns holds both builds as its traced half and the
// untimed one as its plain half; overhead is timed over untimed, and
// attributed the share of the timed build that named stages cover.
func buildSegment(res *runResult, path string, seed int64, size offlineSize) (builds replay, overhead, attributed float64, err error) {
	m := res.metrics
	timed, err := offlineBuild(path, seed, size, true, nil)
	if err != nil {
		return replay{}, 0, 0, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	plain, err := offlineBuild(path, seed, size, false, nil)
	if err != nil {
		return replay{}, 0, 0, err
	}
	runtime.ReadMemStats(&after)
	builds = replay{
		traced:       phaseResult{ok: 2, samples: []sample{{lat: timed.total}, {lat: plain.total}}},
		plain:        phaseResult{ok: 1, samples: []sample{{lat: plain.total}}},
		plainMallocs: after.Mallocs - before.Mallocs,
	}
	if !timed.stamp.SameContent(plain.stamp) {
		builds.traced.ok, builds.traced.failed = 0, 2
		res.notef("offline: two builds of one seed gave fingerprints %016x and %016x", timed.stamp.TableCRC, plain.stamp.TableCRC)
	}
	staged := timed.freeze + timed.pack + timed.mmap + timed.verify + timed.firstTouch
	for _, sn := range stageNames {
		m[sn.stage] = ms(timed.stages[sn.stage])
		staged += timed.stages[sn.stage]
	}
	m["core.candidates_raw"] = float64(timed.raw)
	m["core.candidates_kept"] = float64(timed.kept)
	if timed.raw > 0 {
		m["core.keep_ratio"] = float64(timed.kept) / float64(timed.raw)
	}
	m["core.annotated"] = float64(timed.annotated)
	m["core.edges_admitted"] = float64(timed.admitted)
	m["core.edges_expanded"] = float64(timed.expanded)
	m["core.edges_final"] = float64(timed.edges)
	m["llm.teacher_calls"] = float64(timed.teacher.Calls)
	m["llm.teacher_sim_ms"] = timed.teacher.SimulatedMs
	m["llm.teacher_ms_per_edge"] = timed.teacher.SimulatedMs / float64(timed.edges)
	m["cosmolm.sim_ms"] = timed.cosmoLM.SimulatedMs
	m["kg.artifact_bytes_per_edge"] = float64(timed.fileBytes) / float64(timed.edges)
	m["proc.alloc_mb_per_build"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	return builds, float64(timed.total) / float64(plain.total), float64(staged) / float64(timed.total), nil
}

// directProbes time the public function of each layer over the same
// seeded key sequence the requests use.
func (s *stack) directProbes(m map[string]float64, seed int64, seqB []op, total time.Duration) {
	const probes = 13 // timePair probes take two shares
	each := total / probes
	snap := s.nodes[0].dep.KG()
	ix := s.nodes[0].dep.Similarity()
	dep := s.nodes[0].dep
	heads := genOps(seed, []mixEntry{{epIntentions, 1}}, s.keys.nHeads, s.keys.nQueries, directProbeKeys)
	queries := genOps(seed, []mixEntry{{epIntent, 1}}, s.keys.nHeads, s.keys.nQueries, directProbeKeys)
	ids := make([]string, len(heads))
	idBytes := make([][]byte, len(heads))
	for i, o := range heads {
		ids[i] = s.keys.of(o).key
		idBytes[i] = []byte(ids[i])
	}
	qs := make([]string, len(queries))
	for i, o := range queries {
		qs[i] = s.keys.of(o).key
	}
	id := func(i int) string { return ids[i%len(ids)] }
	q := func(i int) string { return qs[i%len(qs)] }
	buf := make([]byte, 0, 64<<10)

	intentions, encIntentions := timePair(2*each,
		func(i int) { sink += snap.IntentionsFor(id(i)).Len() },
		func(i int) { sink += len(serving.AppendIntentionsJSON(buf[:0], snap, id(i), 10)) })
	m["kg.intentions_ns"] = intentions
	m["serving.encode_intentions_ns"] = max(0, encIntentions-intentions)
	relatedOnly, encRelated := timePair(2*each,
		func(i int) {
			seq := snap.RelatedSeqString(id(i), 10)
			sink += seq.Len()
			seq.Release()
		},
		func(i int) { sink += len(serving.AppendRelatedJSON(buf[:0], snap, id(i), 10)) })
	m["serving.encode_related_ns"] = max(0, encRelated-relatedOnly)
	m["kg.sym_lookup_ns"] = timeCalls(each, func(i int) {
		if snap.ContainsBytes(idBytes[i%len(idBytes)]) {
			sink++
		}
	})
	related := timeEach(each, func(i int) {
		seq := snap.RelatedSeqString(id(i), 10)
		sink += seq.Len()
		seq.Release()
	})
	m["kg.related_us"] = us(quantile(related, 0.5))
	m["kg.related_p99_us"] = us(quantile(related, 0.99))
	m["kg.similar_us"] = timeCalls(each, func(i int) { sink += len(ix.Lookup(q(i), 10)) }) / 1e3
	model := embedding.New(kg.DefaultSimilarityDim)
	m["embedding.embed_ns"] = timeCalls(each, func(i int) { sink += len(model.Embed(q(i))) })
	m["serving.handle_query_ns"] = timeCalls(each, func(i int) {
		if _, ok := dep.HandleQuery(q(i)); ok {
			sink++
		}
	})
	var body []byte
	m["serving.batch_append_us"] = timeCalls(each, func(i int) {
		body = body[:0]
		body = append(body, '[')
		for j, o := range batchSlice(seqB, i) {
			if j > 0 {
				body = append(body, ',')
			}
			body = append(body, s.keys.of(o).frag...)
		}
		body = append(body, ']')
		out, status := dep.AppendBatch(buf[:0], body)
		sink += len(out) + status
	}) / 1e3
	corpus := make([]string, 0, wireCorpusEntries)
	corpusBytes := 0
	for i := 0; i < wireCorpusEntries; i++ {
		c := string(serving.AppendIntentionsJSON(nil, snap, id(i), 10))
		corpus = append(corpus, c)
		corpusBytes += len(c)
	}
	perEntry := timeCalls(each, func(i int) { sink += len(wire.AppendString(buf[:0], corpus[i%len(corpus)])) })
	m["wire.append_ns_per_byte"] = perEntry * float64(len(corpus)) / float64(corpusBytes)
	m["cluster.ring_walk_ns"] = timeCalls(each, func(i int) { sink += len(s.router.ReplicaSet(id(i))) })
}
