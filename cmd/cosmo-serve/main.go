// Command cosmo-serve runs the COSMO online serving stack of Figure 5:
// it builds the world, trains COSMO-LM through the offline pipeline,
// then serves structured intent features over HTTP through the feature
// store and asynchronous sharded two-layer cache, with a background
// batch worker and a periodic model-refresh loop. SIGINT/SIGTERM shut
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
// The knowledge graph is served from an immutable frozen snapshot
// (kg.Snapshot): the request path reads it lock-free through an atomic
// pointer, and a new snapshot is swapped in RCU-style without pausing
// in-flight requests. Without -snapshot the pipeline's graph is frozen
// once at start-up; it never changes afterwards, so refreshes keep that
// snapshot.
//
// With -snapshot, the KG is served from a packed binary snapshot
// (.cosmo, written by cosmo-pipeline -out), memory-mapped and aliased
// in place (kg.MapSnapshot; a heap read on the cosmo_nommap build) — no
// Freeze, no re-indexing. Each refresh maps the file again and swaps the
// fresh snapshot in through the same atomic pointer, so a newly built
// artifact goes live on the next refresh tick without a restart. Every
// freshly mapped artifact is fully verified (section checksums and
// structure) before the swap, at start-up and on each reload, so a
// damaged file is a logged reload failure with the current snapshot
// still serving — never a first-touch panic on a user request. A retired
// snapshot's mapping is released only once its last in-flight reader is
// gone: a hot reload never unmaps under a live request.
//
// A refresh tick only reloads when the artifact actually changed:
// unchanged stat identity (mtime+size), or an unchanged table
// checksum — the sealed per-section CRCs double as a content
// fingerprint — skip the reload and RCU swap entirely, counted by the
// cosmo_snapshot_reloads_total / cosmo_snapshot_reload_skipped_total
// metric pair.
//
// Usage:
//
//	cosmo-serve [-addr :8080] [-events N] [-refresh 24h] [-shards 8] [-queue-cap 4096]
//	            [-snapshot kg.cosmo] [-ann-tables 16] [-ann-bits 10]
//	            [-drain-grace 15s]
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
//
// Alongside each snapshot, an LSH similarity index (kg.SimilarityIndex)
// is built over the intention labels and swapped in through the same
// RCU pattern — at start-up and when a refresh commits a different
// snapshot; /similar answers approximate nearest-intention queries
// against it. -ann-tables and -ann-bits tune the recall/speed shape.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cosmo/internal/core"
	"cosmo/internal/faults"
	"cosmo/internal/kg"
	"cosmo/internal/serving"
)

// loadVerified maps the artifact and verifies it eagerly, so the
// snapshot handed to the RCU swap can no longer fail on first touch.
func loadVerified(path string) (*kg.Snapshot, error) {
	snap, err := kg.MapSnapshotFile(path)
	if err != nil {
		return nil, err
	}
	if err := snap.Verify(); err != nil {
		snap.Close() //cosmo:lint-ignore dropped-error the verification error is the root cause
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return snap, nil
}

// artifact follows the -snapshot file across refresh ticks.
type artifact struct {
	path  string
	stamp kg.SnapshotStamp // the revision last loaded; zero means reload on the next tick
}

// load stamps the file and then loads it, in that order: if the file
// is replaced in between, the node serves the new content under the old
// stamp and the next tick reloads once more. The other order would
// serve the old content under the new stamp, and every later tick would
// skip the reload. The loader is a parameter so the ordering can be
// tested.
func (a *artifact) load(loader func(path string) (*kg.Snapshot, error)) (*kg.Snapshot, error) {
	stamp, stampErr := kg.StampSnapshotFile(a.path)
	snap, err := loader(a.path)
	if err != nil {
		return nil, err
	}
	if stampErr != nil {
		log.Printf("snapshot stamp failed (next tick will reload): %v", stampErr)
	}
	a.stamp = stamp
	return snap, nil
}

// changed reports whether the file differs from the revision last
// loaded. Same stat identity is the cheap path (no open); a file
// rewritten byte-identically (e.g. an idempotent rebuild) is recognised
// by its content fingerprint.
func (a *artifact) changed() bool {
	if fi, err := os.Stat(a.path); err == nil &&
		fi.Size() == a.stamp.Size && fi.ModTime().Equal(a.stamp.ModTime) {
		return false
	}
	if stamp, err := kg.StampSnapshotFile(a.path); err == nil && stamp.SameContent(a.stamp) {
		a.stamp = stamp
		return false
	}
	return true
}

// tick picks the snapshot a refresh tick commits: the one serving,
// unless the artifact changed on disk and reloads cleanly. Without
// -snapshot (empty path) there is nothing to pick up: the pipeline's
// graph never changes after core.Run and was frozen once at start-up.
func (a *artifact) tick(dep *serving.Deployment) *kg.Snapshot {
	current := dep.KG()
	if a.path == "" {
		return current
	}
	if !a.changed() {
		dep.NoteSnapshotReloadSkipped()
		log.Print("snapshot unchanged on disk; skipping reload")
		return current
	}
	reloaded, err := a.load(loadVerified)
	if err != nil {
		log.Printf("snapshot reload failed (current snapshot keeps serving): %v", err)
		return current
	}
	dep.NoteSnapshotReload()
	return reloaded
}

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
	annTables := flag.Int("ann-tables", kg.DefaultSimilarityTables, "LSH hash tables for the /similar index")
	annBits := flag.Int("ann-bits", kg.DefaultSimilarityBits, "LSH signature bits per table for the /similar index")
	annSeed := flag.Int64("ann-seed", 1, "LSH hyperplane seed")
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
	// KG source: a packed binary snapshot is mapped with zero
	// re-indexing; otherwise the pipeline's graph is frozen in-process.
	var snap *kg.Snapshot
	art := &artifact{path: *snapshotPath}
	if *snapshotPath != "" {
		start := time.Now()
		snap, err = art.load(loadVerified)
		if err != nil {
			log.Fatal(err)
		}
		how := "heap read, verified"
		if snap.Mapped() {
			how = "mmap, verified"
		}
		log.Printf("loaded snapshot %s in %v: %d nodes / %d edges (%s)",
			*snapshotPath, time.Since(start), snap.NumNodes(), snap.NumEdges(), how)
	} else {
		snap = res.KG.Freeze()
	}
	log.Printf("pipeline ready: frozen KG snapshot %d nodes / %d edges, COSMO-LM %d tails",
		snap.NumNodes(), snap.NumEdges(), res.CosmoLM.KnownTails())

	model := serving.ContextResponderFunc(func(ctx context.Context, q string) (serving.Feature, error) {
		if err := ctx.Err(); err != nil {
			return serving.Feature{}, err
		}
		gens := res.CosmoLM.Generate("search query: "+q, "", "", 3)
		f := serving.Feature{Query: q}
		for _, g := range gens {
			f.Intents = append(f.Intents, g.Text)
			f.Relations = append(f.Relations, string(g.Relation))
		}
		if len(gens) > 0 {
			f.SubCategory = gens[0].Tail
			f.StrongIntent = gens[0].Score > 1.0
		}
		return f, nil
	})

	// Chaos mode: interpose the deterministic fault injector between the
	// resilience layer and the model so a live instance can be driven
	// through outages reproducibly.
	inner := serving.ContextResponder(model)
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
	dep.SetKG(snap)
	if *snapshotPath != "" {
		dep.NoteSnapshotReload() // the initial artifact load
	}
	annCfg := kg.SimilarityConfig{Tables: *annTables, Bits: *annBits, Seed: *annSeed}
	buildANN := func(s *kg.Snapshot) {
		start := time.Now()
		ix := kg.BuildSimilarityIndex(s, annCfg)
		dep.SetSimilarity(ix)
		log.Printf("similarity index: %d intentions indexed in %v (%d tables x %d bits)",
			ix.NumIndexed(), time.Since(start), ix.Config().Tables, ix.Config().Bits)
	}
	buildANN(snap)
	dep.SetReady(true) // warmup (pipeline + KG install) is complete

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// Background batch worker ("Batch Processing and Cache Update").
	workerDone := dep.StartWorker(ctx, *batchEvery, *batchSize)

	// Daily refresh loop ("Model Deployment" + feedback loop). A failed
	// refresh is atomic — the previous model, caches and KG snapshot keep
	// serving — so the error is logged and the next tick retries.
	go func() {
		ticker := time.NewTicker(*refresh)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				log.Print("daily refresh: rotating model, caches and KG snapshot")
				// A newly built artifact goes live here; readers on the
				// old snapshot are undisturbed.
				before := dep.KG()
				if err := dep.DailyRefreshContext(ctx, responder, art.tick(dep), 2048); err != nil {
					log.Printf("daily refresh failed (previous model keeps serving): %v", err)
				} else if now := dep.KG(); now != before {
					// Rebuild the ANN index only for a new snapshot,
					// keeping /similar and the KG endpoints answering
					// from the same world.
					buildANN(now)
				}
			}
		}
	}()

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
	<-workerDone // final batch drain completes before exit
	log.Print("bye")
}
