// Serving example: the Figure 5 deployment in miniature — two-layer
// async cache, batch processing, daily refresh — driven by synthetic
// traffic sent through the node's HTTP handler in process, printing
// hit-rate and measured handler latency.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"

	"cosmo/internal/core"
	"cosmo/internal/kg"
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
	dep.Install(serving.NewGeneration(res.KG.Freeze(), kg.SnapshotStamp{}))

	// Build a Zipf-ish traffic stream from the behavior log's queries.
	var pool []string
	for _, e := range res.SampledSearchBuys {
		pool = append(pool, e.Query)
	}
	// Every query goes through the node's HTTP handler in process, which
	// times it into the per-endpoint latency histogram.
	handler := serving.NewHTTPHandler(dep)
	rng := rand.New(rand.NewSource(7))
	day := func(n int) {
		for i := 0; i < n; i++ {
			q := pool[int(rng.Float64()*rng.Float64()*float64(len(pool)))]
			handler.ServeHTTP(httptest.NewRecorder(),
				httptest.NewRequest(http.MethodGet, "/intent?q="+url.QueryEscape(q), nil))
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
	if err := dep.Refresh(ctx, responder, serving.NewGeneration(res.KG.Freeze(), kg.SnapshotStamp{}), 512); err != nil {
		log.Fatalf("daily refresh: %v", err)
	}

	fmt.Println("day 2 (warm yearly layer)...")
	day(20000)
	s2 := dep.Cache.Stats()
	lat := dep.Latency("intent")
	fmt.Printf("  cumulative hit rate %.1f%%, model version %d\n", s2.HitRate()*100, dep.Version())
	fmt.Printf("  measured /intent handler latency p50=%.3fms p99=%.3fms\n", lat.Quantile(0.50), lat.Quantile(0.99))
}
