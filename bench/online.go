package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"
)

// Phase shares of --seconds. After the warm-up the open and closed
// phases alternate in rounds, so that a stretch of seconds in which the
// host is slow cannot swallow one phase whole; over the rounds they keep
// about the issue's 15 : 9 proportion.
const (
	warmShare = 0.10
	rounds    = 5
	// windowShare is the width of one measurement window as a share of
	// --seconds; refreshShare, the rolling refresh period, equals it so
	// that every window of refresh-under-load holds exactly one swap.
	windowShare  = 0.025
	refreshShare = windowShare
	// A round is 4 windows of open loop, then 3 of closed loop.
	openWindows   = 4
	closedWindows = 3
)

// runResult is one run's outcome in the driver's terms, plus the
// human-readable lines printed above the final JSON line.
type runResult struct {
	metrics   map[string]float64
	attempted int
	failed    int
	correct   bool
	notes     []string
}

func (r *runResult) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// maxFailRatio is the share of failed operations above which a run is
// not correct.
const maxFailRatio = 0.001

func (r *runResult) settle() {
	r.correct = r.attempted > 0 && float64(r.failed) <= maxFailRatio*float64(r.attempted)
}

// refresher performs the rolling refresh of refresh-under-load: every
// period, one node, round-robin. Its records are read after halt.
type refresher struct {
	commits   []time.Time
	durations []time.Duration
	errs      int
	stop      context.CancelFunc
	done      chan struct{}
}

func (s *stack) startRefresher(ctx context.Context, every time.Duration) *refresher {
	ctx, cancel := context.WithCancel(ctx)
	r := &refresher{stop: cancel, done: make(chan struct{})}
	go func() {
		defer close(r.done)
		ticker := time.NewTicker(every)
		defer ticker.Stop()
		for i := 0; ; i++ {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
			}
			t0 := now()
			committed, err := s.refreshNode(ctx, i%len(s.nodes))
			if err != nil && ctx.Err() != nil {
				return // halted mid-refresh: not a failure of the system
			}
			if err != nil {
				r.errs++
			} else {
				r.commits = append(r.commits, committed)
				r.durations = append(r.durations, since(t0))
			}
		}
	}()
	return r
}

// halt stops the refresher and waits for it.
func (r *refresher) halt() {
	r.stop()
	<-r.done
}

// swapStall is the median over swaps of the largest latency among the
// requests due within window after the swap committed.
func swapStall(phases []phaseResult, commits []time.Time, window time.Duration) (time.Duration, int) {
	var worst []time.Duration
	for _, p := range phases {
		for _, c := range commits {
			at := c.Sub(p.start)
			var max time.Duration
			for _, s := range p.samples {
				if s.due >= at && s.due < at+window && s.lat > max {
					max = s.lat
				}
			}
			if max > 0 {
				worst = append(worst, max)
			}
		}
	}
	return medianDuration(worst), len(worst)
}

func medianDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	ds = append([]time.Duration(nil), ds...)
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

// runOnline is the end-to-end run of an online workload over a built
// stack: warm-up, then rounds of an open phase at the workload's fixed
// rate and a closed phase.
func runOnline(ctx context.Context, s *stack, w *workload, seed int64, dur time.Duration) *runResult {
	res := &runResult{metrics: map[string]float64{}}
	clients := runtime.NumCPU()
	seq := genOps(seed, w.mix, s.keys.nHeads, s.keys.nQueries, seqLen)
	fn := s.routedOp(seq)
	if w.route == routeBatch {
		fn = s.batchOp(seq)
	}
	width := time.Duration(windowShare * float64(dur))
	warmDur := time.Duration(warmShare * float64(dur))
	openDur, closedDur := openWindows*width, closedWindows*width

	var rf *refresher
	if w.refresh {
		rf = s.startRefresher(ctx, time.Duration(refreshShare*float64(dur)))
	}

	warm := runClosed(ctx, warmDur, clients, 0, 1, fn)
	first := warm.attempted()
	res.metrics["live_heap_mb"] = liveHeapMiB()
	var open, closed phaseResult // all rounds merged, for the whole-phase readings
	var opens []phaseResult
	var roundP99 []float64 // ms, one per open round
	var ow, cw windowStats
	var closedTime time.Duration
	var mallocs uint64
	for r := 0; r < rounds; r++ {
		o := runOpen(ctx, openDur, clients, w.rateRPS, first, checkEvery, fn)
		first += o.attempted()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c := runClosed(ctx, closedDur, clients, first, checkEvery, fn)
		runtime.ReadMemStats(&after)
		first += c.attempted()
		mallocs += after.Mallocs - before.Mallocs
		closedTime += c.elapsed
		ow.merge(perWindow(o, openDur, width))
		cw.merge(perWindow(c, closedDur, width))
		opens = append(opens, o)
		roundP99 = append(roundP99, ms(quantile(sortedDurations(o.samples, latOf), 0.99)))
		open.add(o)
		closed.add(c)
	}
	if rf != nil {
		rf.halt()
	}

	openLat := sortedDurations(open.samples, latOf)
	res.metrics["lat_quiet_ms"] = quietDecile(ow.p50, true)
	res.metrics["capacity_quiet_rps"] = quietDecile(cw.rate, false)
	res.metrics["lat_p50_ms"] = ms(quantile(openLat, 0.50))
	res.metrics["capacity_rps"] = float64(len(closed.samples)) / closedTime.Seconds()
	res.metrics["allocs_per_op"] = float64(mallocs) / float64(len(closed.samples))
	res.metrics["lat_p99_ms"] = quantileOf(roundP99, 0.5)
	res.attempted = warm.attempted() + open.attempted() + closed.attempted()
	res.failed = warm.failed + open.failed + closed.failed

	lag := quantile(sortedDurations(open.samples, lagOf), 0.99)
	res.notef("seq_hash=%016x keys: %d heads, %d queries", seqHash(seq), s.keys.nHeads, s.keys.nQueries)
	res.notef("warm-up: %d ops, every response checked, %d failed", warm.attempted(), warm.failed)
	res.notef("open:    %d rps, %d rounds of %v: %d ops (%d queued 202, %d failed); %d windows of %v, >= %d samples each",
		w.rateRPS, rounds, openDur, open.attempted(), open.queued, open.failed, len(ow.p50), width, ow.minSamples)
	res.notef("         lat_quiet_ms is the first decile of the windows' medians (their median %.4f ms); lat_p50_ms the median of all %d samples",
		quantileOf(ow.p50, 0.5), len(openLat))
	res.notef("         lat_p99_ms: median of the p99s of the %d rounds, %d samples each (min %.4f, max %.4f ms)",
		rounds, open.attempted()/rounds, quantileOf(roundP99, 0), quantileOf(roundP99, 1))
	res.notef("         loadgen.sched_lag_p99_ms=%.4f loadgen.lat_p999_ms=%.3f loadgen.lat_max_ms=%.3f",
		ms(lag), ms(quantile(openLat, 0.999)), ms(quantile(openLat, 1)))
	if lag > time.Millisecond {
		res.notef("WARNING: the generator ran late (sched_lag_p99 > 1 ms); open-phase latencies include generator delay")
	}
	res.notef("closed:  %d clients, %d rounds of %v: %d ops (%d queued 202, %d failed); capacity_quiet_rps is the ninth decile of %d windows' rates (their median %.1f ops/s)",
		clients, rounds, closedDur, closed.attempted(), closed.queued, closed.failed, len(cw.rate), quantileOf(cw.rate, 0.5))
	if w.route == routeRouter {
		st := s.router.Stats()
		res.notef("router:  %d requests, %d hedges (%d won), %d failovers, hedge delay %.2f ms",
			st.Requests, st.Hedges, st.HedgeWins, st.Failovers, st.HedgeDelayMs)
	}
	if rf != nil {
		stall, n := swapStall(opens, rf.commits, width)
		res.metrics["swap_stall_ms"] = ms(stall)
		res.notef("refresh: %d swaps (%d failed), median refresh %.2f ms; swap_stall_ms is the median over the %d swaps inside open rounds",
			len(rf.commits), rf.errs, ms(medianDuration(rf.durations)), n)
		res.failed += rf.errs
		res.attempted += len(rf.commits) + rf.errs
	}
	res.settle()
	return res
}
