package serving

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cosmo/internal/kg"
)

// Responder runs model inference for one query — the expensive path that
// the cache architecture keeps off the request critical path. COSMO-LM
// is adapted to this interface by the caller (see cmd/cosmo-serve).
// Responder is the legacy infallible interface; new serving code targets
// ContextResponder (responder.go), and AdaptResponder bridges the two.
type Responder interface {
	Respond(query string) Feature
}

// ResponderFunc adapts a function to the Responder interface.
type ResponderFunc func(query string) Feature

// Respond calls f.
func (f ResponderFunc) Respond(query string) Feature { return f(query) }

// Simulated serving latencies (ms); the cached path is the latency the
// deployment must meet ("Amazon's restricted search latency
// requirements"), the model path is why inline inference is infeasible.
const (
	CacheHitLatencyMs  = 2.0
	CacheMissLatencyMs = 3.0 // lookup + enqueue; response degrades, never blocks
)

// interactionStripes is the lock-stripe count of the feedback-loop
// counter; like the cache shard count it is fixed for determinism.
const interactionStripes = 16

// Deployment wires the cache store, feature store, responder and refresh
// loop together (Figure 5's operational flow).
//
// The request path (HandleQuery) is lock-striped end to end: the cache
// shards on query hash, latency goes to a fixed-bucket atomic histogram,
// and the interaction feedback loop is a striped counter. Memory is
// O(cache capacity + distinct queries), not O(requests served).
//
// The responder path is fallible: batch processing recovers responder
// panics and re-queues failed queries, DailyRefresh aborts atomically
// when inference fails mid-rebuild, and HandleQuery degrades to serving
// prior-version features (flagged Stale) from the feature store when the
// cache tiers miss.
type Deployment struct {
	Cache *AsyncCache
	Store *FeatureStore
	// Clock stamps features; swap in a FakeClock for tests.
	Clock Clock

	mu        sync.Mutex // guards responder; refreshMu serializes refreshes
	refreshMu sync.Mutex
	responder ContextResponder
	version   atomic.Int64

	// ready flips once warmup completes (SetReady); /readyz reports 503
	// until then and again whenever the breaker is open.
	ready atomic.Bool

	// draining marks a deliberate shutdown in progress (BeginDrain):
	// /readyz answers 503 so routers stop sending fresh keys here, but
	// the query endpoints keep serving in-flight and router-retry
	// traffic until the grace period lapses. Exported on /metrics as
	// cosmo_draining so a router can distinguish drain from death.
	draining     atomic.Bool
	drainStartNs atomic.Int64

	latency *Histogram
	// interactions is the feedback loop: query -> interaction count,
	// feeding the next refresh's frequent-search selection.
	interactions *stripedCounter

	// Batch and degradation accounting (see BatchTotals).
	batchSucceeded      atomic.Uint64
	batchFailed         atomic.Uint64
	batchRequeued       atomic.Uint64
	batchRequeueDropped atomic.Uint64
	batchPanics         atomic.Uint64
	staleServed         atomic.Uint64
	refreshFailures     atomic.Uint64

	// Snapshot refresh accounting: reloads that swapped a fresh KG
	// artifact in, vs refresh ticks that skipped the reload because the
	// on-disk artifact was unchanged (same stat identity or same v2
	// content fingerprint; see kg.SnapshotStamp).
	snapshotReloads        atomic.Uint64
	snapshotReloadsSkipped atomic.Uint64

	// kgSnap is the frozen knowledge-graph read path. Requests load it
	// with one atomic read and traverse it lock-free; DailyRefresh
	// swaps in a fresh snapshot RCU-style — in-flight requests keep
	// reading the old one until they finish, and the swap never blocks.
	kgSnap atomic.Pointer[kg.Snapshot]

	// simIdx is the ANN retrieval path (/similar): an immutable LSH
	// index over the snapshot's intention embeddings, swapped RCU-style
	// alongside the snapshot it was built from.
	simIdx atomic.Pointer[kg.SimilarityIndex]

	// maxBatchItems bounds one POST /batch request (DeployConfig).
	maxBatchItems int
}

// DeployConfig configures a deployment.
type DeployConfig struct {
	DailyCacheCap int
	// CacheShards overrides the cache's lock-stripe count
	// (DefaultCacheShards when 0).
	CacheShards int
	// QueueCap bounds the batch miss queue (DefaultQueueCap when 0).
	QueueCap int
	// MaxBatchItems bounds one POST /batch request
	// (DefaultMaxBatchItems when 0).
	MaxBatchItems int
}

// NewDeployment builds a deployment around the initial model, adapting
// the legacy infallible responder.
func NewDeployment(cfg DeployConfig, responder Responder) *Deployment {
	return NewDeploymentContext(cfg, AdaptResponder(responder))
}

// NewDeploymentContext builds a deployment around a fallible responder
// (typically a *Resilient wrapping the model backend).
func NewDeploymentContext(cfg DeployConfig, responder ContextResponder) *Deployment {
	if cfg.DailyCacheCap <= 0 {
		cfg.DailyCacheCap = 1024
	}
	if cfg.MaxBatchItems <= 0 {
		cfg.MaxBatchItems = DefaultMaxBatchItems
	}
	d := &Deployment{
		Cache: NewAsyncCacheWithConfig(CacheConfig{
			DailyCap: cfg.DailyCacheCap,
			Shards:   cfg.CacheShards,
			QueueCap: cfg.QueueCap,
		}),
		Store:         NewFeatureStoreWithCap(DefaultFeatureStoreCap),
		Clock:         RealClock{},
		responder:     responder,
		latency:       NewHistogram(nil),
		interactions:  newStripedCounter(interactionStripes),
		maxBatchItems: cfg.MaxBatchItems,
	}
	d.version.Store(1)
	return d
}

// SetKG installs a frozen knowledge-graph snapshot as the serving read
// path (lock-free atomic store; nil is ignored so a refresh without a
// rebuilt KG keeps serving the current one).
func (d *Deployment) SetKG(s *kg.Snapshot) {
	if s != nil {
		d.kgSnap.Store(s)
	}
}

// KG returns the current frozen knowledge-graph snapshot (nil until
// SetKG installs one). The returned snapshot is immutable and safe to
// traverse without coordination for as long as the caller holds it,
// even across a concurrent DailyRefresh swap.
func (d *Deployment) KG() *kg.Snapshot {
	return d.kgSnap.Load()
}

// SetSimilarity installs the ANN index backing /similar (lock-free
// atomic store; nil is ignored, mirroring SetKG, so a refresh without a
// rebuilt index keeps serving the current one). Callers pair the index
// with the snapshot it was built from: SetKG then SetSimilarity.
func (d *Deployment) SetSimilarity(ix *kg.SimilarityIndex) {
	if ix != nil {
		d.simIdx.Store(ix)
	}
}

// Similarity returns the current ANN index (nil until SetSimilarity
// installs one). Like the snapshot it is immutable and safe to query
// without coordination across a concurrent swap.
func (d *Deployment) Similarity() *kg.SimilarityIndex {
	return d.simIdx.Load()
}

// SetReady marks warmup complete (or revokes readiness); /readyz
// reports 503 until the deployment is ready.
func (d *Deployment) SetReady(ready bool) { d.ready.Store(ready) }

// Ready reports whether warmup has completed.
func (d *Deployment) Ready() bool { return d.ready.Load() }

// BeginDrain starts a graceful drain: readiness flips off (so /readyz
// tells load balancers and routers to take this node out of rotation)
// and the deployment is marked draining. The query endpoints keep
// serving — in-flight requests and router retries still get answers —
// until the caller decides the grace period is over (DrainElapsed) and
// shuts the listener down. Idempotent; the first call stamps the drain
// start time from the deployment's Clock.
func (d *Deployment) BeginDrain() {
	d.SetReady(false)
	if d.draining.CompareAndSwap(false, true) {
		d.drainStartNs.Store(d.Clock.Now().UnixNano())
	}
}

// Draining reports whether a graceful drain is in progress.
func (d *Deployment) Draining() bool { return d.draining.Load() }

// DrainElapsed reports whether the drain grace period has lapsed: true
// once BeginDrain was called at least grace ago on the deployment's
// Clock (so tests drive it with a FakeClock). False when not draining.
func (d *Deployment) DrainElapsed(grace time.Duration) bool {
	if !d.draining.Load() {
		return false
	}
	start := time.Unix(0, d.drainStartNs.Load())
	return d.Clock.Now().Sub(start) >= grace
}

// Version returns the current model version.
func (d *Deployment) Version() int {
	return int(d.version.Load())
}

// CurrentResponder returns the responder currently installed (the one
// DailyRefresh last committed).
func (d *Deployment) CurrentResponder() ContextResponder {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.responder
}

// ResilienceStats reports the current responder's resilience counters
// when it exposes them (i.e. it is a *Resilient or equivalent); ok is
// false for plain responders.
func (d *Deployment) ResilienceStats() (ResilienceStats, bool) {
	if rr, ok := d.CurrentResponder().(resilienceReporter); ok {
		return rr.ResilienceStats(), true
	}
	return ResilienceStats{}, false
}

// HandleQuery is the request path: check the async cache, return
// structured features on a hit; on a miss the query is queued for batch
// processing and, as graceful degradation, any prior feature still in
// the feature store is served flagged Stale — the caller gets possibly
// outdated intent features instead of none while the batch processor
// catches up. No global lock is taken and the responder is never invoked
// inline: the cache lookup, store fallback, latency observation and
// feedback increment are all striped or atomic.
func (d *Deployment) HandleQuery(query string) (Feature, bool) {
	f, ok := d.Cache.Lookup(query)
	if ok {
		d.latency.Observe(CacheHitLatencyMs)
	} else {
		d.latency.Observe(CacheMissLatencyMs)
		if sf, found := d.Store.Get(query); found {
			sf.Stale = true
			d.staleServed.Add(1)
			f, ok = sf, true
		}
	}
	d.interactions.inc(query)
	return f, ok
}

// BatchResult reports one RunBatch pass. Every drained query is
// accounted for: Drained == Succeeded + Failed, and each failure was
// either re-queued for a later batch or dropped because its shard's
// bounded queue was full.
type BatchResult struct {
	Drained   int
	Succeeded int
	Failed    int
	Requeued  int
	Dropped   int
}

// BatchTotals aggregates batch accounting across the deployment's
// lifetime (the serving-side half of the no-query-silently-lost ledger;
// the enqueue-side half lives in CacheStats).
type BatchTotals struct {
	Succeeded      uint64
	Failed         uint64
	Requeued       uint64
	RequeueDropped uint64
	Panics         uint64
	StaleServed    uint64
	RefreshFails   uint64
}

// BatchTotals snapshots the deployment's batch and degradation
// counters.
func (d *Deployment) BatchTotals() BatchTotals {
	return BatchTotals{
		Succeeded:      d.batchSucceeded.Load(),
		Failed:         d.batchFailed.Load(),
		Requeued:       d.batchRequeued.Load(),
		RequeueDropped: d.batchRequeueDropped.Load(),
		Panics:         d.batchPanics.Load(),
		StaleServed:    d.staleServed.Load(),
		RefreshFails:   d.refreshFailures.Load(),
	}
}

// NoteSnapshotReload records one KG snapshot reload-and-swap (the
// refresh loop picked up a changed artifact, or the initial load).
func (d *Deployment) NoteSnapshotReload() { d.snapshotReloads.Add(1) }

// NoteSnapshotReloadSkipped records one refresh tick that skipped the
// snapshot reload because the artifact on disk was unchanged.
func (d *Deployment) NoteSnapshotReloadSkipped() { d.snapshotReloadsSkipped.Add(1) }

// SnapshotReloadStats returns the (reloads, skipped) counter pair.
func (d *Deployment) SnapshotReloadStats() (reloads, skipped uint64) {
	return d.snapshotReloads.Load(), d.snapshotReloadsSkipped.Load()
}

// RunBatch drains up to n queued queries through the responder with a
// background context; see RunBatchContext. It returns the number
// successfully processed (for infallible responders this equals the
// number drained, preserving the legacy contract).
func (d *Deployment) RunBatch(n int) int {
	//cosmo:lint-ignore ctx-propagation legacy infallible bridge: callers predate the ctx API and have no deadline to thread
	return d.RunBatchContext(context.Background(), n).Succeeded
}

// RunBatchContext drains up to n queued queries, runs model inference
// for each, writes features to the feature store and installs them in
// the daily cache layer ("Batch Processing and Cache Update"). The
// responder path is fallible: a panic is recovered and counted, and a
// failed query is re-queued on its shard's bounded queue for a later
// batch (dropped, with a metric, when that queue is full) — no query is
// silently lost.
func (d *Deployment) RunBatchContext(ctx context.Context, n int) BatchResult {
	queries := d.Cache.DrainQueue(n)
	responder := d.CurrentResponder()
	version := d.Version()
	var res BatchResult
	res.Drained = len(queries)
	for _, q := range queries {
		f, err := d.respondSafe(ctx, responder, q)
		if err != nil {
			res.Failed++
			d.batchFailed.Add(1)
			if d.Cache.Requeue(q) {
				res.Requeued++
				d.batchRequeued.Add(1)
			} else {
				res.Dropped++
				d.batchRequeueDropped.Add(1)
			}
			continue
		}
		f.Query = q
		f.Version = version
		f.CreatedAt = d.Clock.Now()
		d.Store.Put(f)
		d.Cache.InstallDaily(f)
		res.Succeeded++
		d.batchSucceeded.Add(1)
	}
	return res
}

// respondSafe invokes the responder, converting a panic into an error
// so one poisoned query cannot take down the batch worker or a refresh.
func (d *Deployment) respondSafe(ctx context.Context, r ContextResponder, q string) (f Feature, err error) {
	defer func() {
		if p := recover(); p != nil {
			d.batchPanics.Add(1)
			err = fmt.Errorf("%w: %v", ErrResponderPanic, p)
		}
	}()
	return r.RespondContext(ctx, q)
}

// StartWorker launches the background batch-processing loop: every
// interval it drains up to batchSize queued misses through RunBatch.
// When ctx is cancelled the worker drains the whole remaining queue in
// batchSize passes — not just one batch — so every query accepted before
// shutdown is processed; the drain stops early only when a pass makes no
// successful progress (responder fully down), leaving the re-queued
// remainder accounted for in BatchTotals. The returned channel is closed
// once the worker has stopped.
func (d *Deployment) StartWorker(ctx context.Context, interval time.Duration, batchSize int) <-chan struct{} {
	if interval <= 0 {
		interval = time.Second
	}
	if batchSize <= 0 {
		batchSize = 64
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				// Final drain: loop until the queue is empty. The
				// worker's ctx is cancelled, so the drain runs under
				// WithoutCancel — it keeps the caller's values (trace
				// metadata survives) while shedding the cancellation
				// that would abort every in-flight respond call; a pass
				// that drains queries but completes none means the
				// responder is down and looping would re-queue forever.
				for {
					r := d.RunBatchContext(context.WithoutCancel(ctx), batchSize)
					if r.Drained == 0 || r.Succeeded == 0 {
						return
					}
				}
			case <-ticker.C:
				d.RunBatchContext(ctx, batchSize)
			}
		}
	}()
	return done
}

// DailyRefresh adapts a legacy infallible responder into
// DailyRefreshContext (kept for offline experiments and fixtures).
func (d *Deployment) DailyRefresh(responder Responder, kgSnap *kg.Snapshot, yearlyTop int) error {
	//cosmo:lint-ignore ctx-propagation legacy infallible bridge: callers predate the ctx API and have no deadline to thread
	return d.DailyRefreshContext(context.Background(), AdaptResponder(responder), kgSnap, yearlyTop)
}

// DailyRefreshContext swaps in a refreshed model ("Model Deployment:
// dynamic ingestion of customer behavior session logs and efficient
// model updates"), atomically publishes the refreshed KG snapshot (RCU:
// requests already walking the old snapshot finish on it; new requests
// see the new one; nil keeps the current snapshot), clears the daily
// cache layer, and rebuilds the yearly layer from the most-interacted
// queries of the feedback loop. A negative yearlyTop is treated as 0
// (refresh the model, install no yearly entries).
//
// The refresh is atomic with respect to failure: every yearly feature is
// rebuilt through the new responder before anything is installed, so if
// inference fails (or panics, or the context is cancelled) mid-rebuild
// the previous responder, model version, yearly layer, feature store and
// KG snapshot all stay exactly as they were and the error is returned.
// Refreshes are serialized; concurrent calls queue behind each other.
func (d *Deployment) DailyRefreshContext(ctx context.Context, responder ContextResponder, kgSnap *kg.Snapshot, yearlyTop int) error {
	d.refreshMu.Lock()
	defer d.refreshMu.Unlock()
	version := d.Version() + 1
	counts := d.interactions.sorted()
	if yearlyTop < 0 {
		yearlyTop = 0
	}
	if yearlyTop > len(counts) {
		yearlyTop = len(counts)
	}
	features := make([]Feature, 0, yearlyTop)
	for _, e := range counts[:yearlyTop] {
		f, err := d.respondSafe(ctx, responder, e.q)
		if err != nil {
			d.refreshFailures.Add(1)
			return fmt.Errorf("daily refresh aborted: yearly rebuild failed at %q (%d/%d rebuilt): %w",
				e.q, len(features), yearlyTop, err)
		}
		f.Query = e.q
		f.Version = version
		f.CreatedAt = d.Clock.Now()
		features = append(features, f)
	}
	// Commit point: every yearly feature rebuilt successfully. Install
	// the new model, version, KG snapshot and cache layers.
	func() {
		d.mu.Lock()
		defer d.mu.Unlock()
		d.responder = responder
		d.version.Store(int64(version))
	}()
	d.SetKG(kgSnap)
	for _, f := range features {
		d.Store.Put(f)
	}
	d.Cache.ReplaceYearly(features)
	d.Cache.ResetDaily()
	return nil
}

// LatencyPercentiles returns the p50 and p99 of observed request
// latencies (ms), estimated from the fixed-bucket histogram.
func (d *Deployment) LatencyPercentiles() (p50, p99 float64) {
	s := d.latency.Snapshot()
	return s.Quantile(0.50), s.Quantile(0.99)
}

// LatencySnapshot exposes the latency histogram's buckets (for the
// /metrics exporter).
func (d *Deployment) LatencySnapshot() HistogramSnapshot {
	return d.latency.Snapshot()
}

// TopInteractions returns the feedback loop's most frequent queries.
func (d *Deployment) TopInteractions(n int) []string {
	counts := d.interactions.sorted()
	if n > len(counts) {
		n = len(counts)
	}
	if n < 0 {
		n = 0
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = counts[i].q
	}
	return out
}
