// Command cosmo-serve runs the COSMO online serving stack of Figure 5:
// it builds the world, trains COSMO-LM through the offline pipeline,
// then serves structured intent features over HTTP through the feature
// store and asynchronous two-layer cache, sharded together so one
// shard owns each query's state, with a background batch worker and a
// periodic model-refresh loop. SIGINT/SIGTERM shut
// the server down gracefully: in-flight requests finish and the batch
// worker drains the whole remaining queue before exit.
//
// The responder path is fallible end to end: model calls run under
// per-attempt timeouts with bounded seeded-backoff retries behind a
// circuit breaker (serving.Resilient), failed batch queries are
// re-queued, a refresh that fails mid-rebuild aborts atomically, and
// cache misses degrade to serving prior-version features flagged stale.
// The -fault-* flags interpose a deterministic fault injector
// (internal/faults) between the resilience layer and the model for
// chaos-testing a live instance.
//
// The knowledge graph is served as one serving.Generation: a frozen
// kg.Snapshot, the similarity index (kg.SimilarityIndex: the intention
// labels' embeddings, scanned exactly by /similar), and the stamp of the
// file it came from. The index is built before the commit, and a refresh
// swaps model, version, snapshot and index in as one value, RCU-style,
// so no request sees a mix of two refreshes. Without -snapshot the
// pipeline's graph is frozen once at start-up and every refresh keeps
// it. With -snapshot the KG is a packed .cosmo file (cosmo-pipeline
// -out), memory-mapped and verified section by section (a heap read on
// the cosmo_nommap build). serving.Artifact follows that file: a tick
// reloads it only when it changed on disk (cosmo_snapshot_reloads_total
// / cosmo_snapshot_reload_skipped_total), a damaged file is a logged
// reload failure with the current generation still serving, and a
// retired mapping is released only after its last in-flight reader.
// Publish a new build by rename (cosmo-pipeline -out does); a cp onto
// the served path rewrites the mapped file under the node.
//
// Usage:
//
//	cosmo-serve [-addr :8080] [-events N] [-refresh 24h] [-shards 8] [-queue-cap 4096]
//	            [-snapshot kg.cosmo] [-drain-grace 15s]
//	            [-fault-rate 0.2 -fault-seed 1 -fault-hang-rate 0.05 -fault-panic-rate 0.05]
//
// With -drain-grace, SIGINT/SIGTERM starts a graceful drain instead of
// an immediate shutdown: /readyz flips to 503 with a "draining" body
// (and /metrics exports cosmo_draining 1) so routers and load balancers
// take the node out of rotation, while the query endpoints keep
// answering in-flight and router-retry traffic for the grace period;
// then the server shuts down.
//
// Endpoints: GET /intent?q=..., GET /intentions?id=..., GET /related?id=...,
// GET /similar?q=..., POST /batch, GET /kg, GET /metrics, GET /healthz,
// GET /readyz.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os/signal"
	"syscall"
	"time"

	"cosmo/internal/core"
	"cosmo/internal/faults"
	"cosmo/internal/kg"
	"cosmo/internal/serving"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cosmo-serve: ")

	addr := flag.String("addr", ":8080", "HTTP listen address")
	snapshotPath := flag.String("snapshot", "", "serve the KG from this packed binary snapshot (.cosmo), memory-mapped, verified, and re-mapped on each refresh when it changed")
	events := flag.Int("events", 10000, "behavior events for the offline pipeline")
	refresh := flag.Duration("refresh", 24*time.Hour, "model refresh interval")
	batchEvery := flag.Duration("batch", 2*time.Second, "batch-worker interval")
	batchSize := flag.Int("batch-size", 256, "max queries per batch run")
	shards := flag.Int("shards", serving.DefaultCacheShards, "cache lock-stripe count")
	queueCap := flag.Int("queue-cap", serving.DefaultQueueCap, "bounded batch-queue capacity")
	callTimeout := flag.Duration("call-timeout", time.Second, "per-attempt responder timeout")
	maxRetries := flag.Int("max-retries", 2, "responder retries per call")
	faultRate := flag.Float64("fault-rate", 0, "injected responder error rate [0,1] (chaos mode)")
	faultSeed := flag.Int64("fault-seed", 1, "fault-injection seed (deterministic per seed)")
	faultHangRate := flag.Float64("fault-hang-rate", 0, "injected hang rate [0,1]")
	faultPanicRate := flag.Float64("fault-panic-rate", 0, "injected panic rate [0,1]")
	faultLatencyRate := flag.Float64("fault-latency-rate", 0, "injected latency-spike rate [0,1]")
	faultLatency := flag.Duration("fault-latency", 50*time.Millisecond, "injected latency-spike duration")
	maxBatch := flag.Int("max-batch", serving.DefaultMaxBatchItems, "max items per POST /batch request")
	drainGrace := flag.Duration("drain-grace", 0, "on SIGINT/SIGTERM, announce a drain (/readyz 503 \"draining\", cosmo_draining 1) and keep serving for this long before shutting down; 0 shuts down immediately")
	flag.Parse()

	cfg := core.DefaultConfig()
	cfg.Behavior.CoBuyEvents = *events
	cfg.Behavior.SearchEvents = *events
	cfg.Logf = log.Printf
	log.Print("running offline pipeline (this trains COSMO-LM)...")
	res, err := core.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Chaos mode: interpose the deterministic fault injector between the
	// resilience layer and the model so a live instance can be driven
	// through outages reproducibly.
	inner := serving.ModelResponder(res.CosmoLM)
	if *faultRate > 0 || *faultHangRate > 0 || *faultPanicRate > 0 || *faultLatencyRate > 0 {
		inj := faults.New(faults.Config{
			Seed:        *faultSeed,
			ErrorRate:   *faultRate,
			HangRate:    *faultHangRate,
			PanicRate:   *faultPanicRate,
			LatencyRate: *faultLatencyRate,
			Latency:     *faultLatency,
		})
		inner = faults.Wrap(inner, inj)
		log.Printf("chaos mode: injecting faults (seed %d, error %.2f, hang %.2f, panic %.2f, latency %.2f)",
			*faultSeed, *faultRate, *faultHangRate, *faultPanicRate, *faultLatencyRate)
	}
	responder := serving.NewResilient(inner, serving.ResilienceConfig{
		CallTimeout: *callTimeout,
		MaxRetries:  *maxRetries,
		Seed:        *faultSeed,
	})

	dep := serving.NewDeploymentContext(serving.DeployConfig{
		DailyCacheCap: 4096,
		CacheShards:   *shards,
		QueueCap:      *queueCap,
		MaxBatchItems: *maxBatch,
	}, responder)
	// KG source: a packed binary snapshot is mapped with zero
	// re-indexing; otherwise the pipeline's graph is frozen in-process.
	art := &serving.Artifact{Path: *snapshotPath}
	var gen *serving.Generation
	if *snapshotPath != "" {
		start := time.Now()
		gen, err = art.Load(dep)
		if err != nil {
			log.Fatal(err)
		}
		how := "heap read, verified"
		if gen.Snap.Mapped() {
			how = "mmap, verified"
		}
		log.Printf("loaded snapshot %s in %v: %d nodes / %d edges (%s)",
			*snapshotPath, time.Since(start), gen.Snap.NumNodes(), gen.Snap.NumEdges(), how)
	} else {
		gen = serving.NewGeneration(res.KG.Freeze(), kg.SnapshotStamp{})
	}
	dep.Install(gen)
	log.Printf("pipeline ready: frozen KG snapshot %d nodes / %d edges, similarity index: %d intentions indexed, COSMO-LM %d tails",
		gen.Snap.NumNodes(), gen.Snap.NumEdges(), gen.Sim.NumIndexed(), res.CosmoLM.KnownTails())
	dep.SetReady(true) // warmup (pipeline + KG install) is complete

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// Background batch worker ("Batch Processing and Cache Update").
	workerDone := dep.StartWorker(ctx, *batchEvery, *batchSize)

	// Daily refresh loop: a newly built artifact goes live on a tick;
	// readers on the old generation are undisturbed.
	refreshDone := make(chan struct{})
	go func() { defer close(refreshDone); art.Run(ctx, dep, responder, *refresh) }()

	// Timeouts bound every connection phase so a slow or hostile client
	// (slowloris) cannot pin a connection forever.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           serving.NewHTTPHandler(dep),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	go func() {
		<-ctx.Done()
		if *drainGrace > 0 {
			// Graceful drain: /readyz answers 503 "draining" so routers
			// and load balancers take this node out of rotation, while
			// the query endpoints keep answering in-flight and
			// router-retry traffic for the grace period.
			dep.BeginDrain()
			log.Printf("draining: out of rotation, serving for another %v before shutdown", *drainGrace)
			timer := time.NewTimer(*drainGrace)
			defer timer.Stop()
			<-timer.C
		} else {
			dep.SetReady(false) // /readyz flips first so load balancers drain
		}
		log.Print("shutting down...")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}()

	log.Printf("serving on %s (%d cache shards, queue cap %d)",
		*addr, dep.Cache.NumShards(), *queueCap)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-refreshDone
	<-workerDone // final batch drain completes before exit
	log.Print("bye")
}
