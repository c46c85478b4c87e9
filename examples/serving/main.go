// Serving example: the Figure 5 deployment in miniature — two-layer
// async cache, batch processing, daily refresh — driven by synthetic
// traffic, printing hit-rate and latency statistics.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"cosmo/internal/core"
	"cosmo/internal/serving"
)

func main() {
	cfg := core.DefaultConfig()
	cfg.Behavior.CoBuyEvents = 5000
	cfg.Behavior.SearchEvents = 5000
	res, err := core.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	responder := serving.ModelResponder(res.CosmoLM)
	dep := serving.NewDeploymentContext(serving.DeployConfig{DailyCacheCap: 256}, responder)
	dep.Install(&serving.Generation{Snap: res.KG.Freeze()})

	// Build a Zipf-ish traffic stream from the behavior log's queries.
	var pool []string
	for _, e := range res.SampledSearchBuys {
		pool = append(pool, e.Query)
	}
	rng := rand.New(rand.NewSource(7))
	day := func(n int) {
		for i := 0; i < n; i++ {
			q := pool[int(rng.Float64()*rng.Float64()*float64(len(pool)))]
			dep.HandleQuery(q)
			if i%100 == 0 {
				dep.RunBatchContext(ctx, 64)
			}
		}
		dep.RunBatchContext(ctx, 1<<20)
	}

	fmt.Println("day 1 (cold caches)...")
	day(20000)
	s1 := dep.Cache.Stats()
	fmt.Printf("  hit rate %.1f%% (yearly %d / daily %d)\n", s1.HitRate()*100, s1.YearlyHits, s1.DailyHits)

	fmt.Println("daily refresh: new model version + KG snapshot swap + yearly preload from feedback loop")
	if err := dep.Refresh(ctx, responder, &serving.Generation{Snap: res.KG.Freeze()}, 512); err != nil {
		log.Fatalf("daily refresh: %v", err)
	}

	fmt.Println("day 2 (warm yearly layer)...")
	day(20000)
	s2 := dep.Cache.Stats()
	p50, p99 := dep.LatencyPercentiles()
	fmt.Printf("  cumulative hit rate %.1f%%, model version %d\n", s2.HitRate()*100, dep.Version())
	fmt.Printf("  latency p50=%.1fms p99=%.1fms\n", p50, p99)
}
