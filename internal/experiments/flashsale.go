package experiments

import (
	"context"
	"fmt"

	"cosmo/internal/serving"
)

// flashSale reproduces the limitation the paper acknowledges in §3.5.3:
// the daily-refresh architecture cannot assimilate real-time events such
// as flash sales. A warmed deployment is hit with a sudden traffic shift
// toward never-seen queries; the hit rate collapses during the spike and
// recovers only as the asynchronous batch processor catches up — the
// measured gap is exactly the "agility" the paper calls future work.
func (r *Runner) flashSale() error {
	ctx := context.Background()
	dep := serving.NewDeploymentContext(serving.DeployConfig{DailyCacheCap: 4096}, serving.ModelResponder(r.World().CosmoLM))
	normal := r.trafficQueries(max(12000, 60000/r.Scale))

	// Phase 1: steady state. Serve normal traffic with periodic batches.
	for i, q := range normal {
		dep.HandleQuery(q)
		if i%200 == 0 {
			dep.RunBatchContext(ctx, 64)
		}
	}
	dep.RunBatchContext(ctx, 1<<20)
	steady := dep.Cache.Stats()

	// Phase 2: flash sale. A burst of novel deal queries arrives; the
	// batch processor runs on its usual cadence, not in real time.
	window := len(normal) / 4
	missesBefore := steady.Misses
	hitsBefore := steady.Hits
	// Flash-sale queries are long-tail-unique (every deal page has its
	// own query variants), so the daily cache has never seen them.
	for i := 0; i < window; i++ {
		if i%3 == 0 {
			dep.HandleQuery(fmt.Sprintf("flash deal %d", i))
		} else {
			dep.HandleQuery(normal[i])
		}
		if i%200 == 0 {
			dep.RunBatchContext(ctx, 64)
		}
	}
	during := dep.Cache.Stats()
	spikeHitRate := rate(during.Hits-hitsBefore, during.Misses-missesBefore)

	// Phase 3: after the batch processor catches up, the same flash
	// traffic is served from the daily layer.
	dep.RunBatchContext(ctx, 1<<20)
	hitsBefore, missesBefore = during.Hits, during.Misses
	// Drain remaining queue grown during phase 3's measurements too.
	for i := 0; i < window; i++ {
		if i%3 == 0 {
			dep.HandleQuery(fmt.Sprintf("flash deal %d", i))
		} else {
			dep.HandleQuery(normal[i])
		}
		if i%200 == 0 {
			dep.RunBatchContext(ctx, 64)
		}
	}
	after := dep.Cache.Stats()
	recoveredHitRate := rate(after.Hits-hitsBefore, after.Misses-missesBefore)

	fmt.Fprintf(r.Out, "steady-state hit rate:   %.1f%%\n", steady.HitRate()*100)
	fmt.Fprintf(r.Out, "during flash-sale spike: %.1f%%\n", spikeHitRate*100)
	fmt.Fprintf(r.Out, "after batch catch-up:    %.1f%%\n", recoveredHitRate*100)
	fmt.Fprintf(r.Out, "shape check: spike degrades hit rate=%v, batch recovery=%v\n",
		spikeHitRate < steady.HitRate(), recoveredHitRate > spikeHitRate)
	fmt.Fprintf(r.Out, "paper §3.5.3: daily refresh 'poses a challenge to our current system's\n")
	fmt.Fprintf(r.Out, "ability to rapidly assimilate' flash sales — the spike-vs-recovery gap above.\n")
	return nil
}

func rate(hits, misses int) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}
