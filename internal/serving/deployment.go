package serving

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cosmo/internal/kg"
)

// Deployment wires the cache store, feature store, responder and refresh
// loop together (Figure 5's operational flow).
//
// The request path (HandleQuery) takes one lock: the query's cache
// shard, which holds its slices of the cache layers, the miss queue,
// the feature store and the interaction feedback loop.
// NewHTTPHandler times each query endpoint on Clock into a fixed-bucket
// atomic histogram per endpoint. Memory is O(cache capacity +
// DefaultFeatureStoreCap), not O(distinct queries or requests served).
//
// The responder path is fallible: batch processing recovers responder
// panics and re-queues failed queries, Refresh aborts atomically
// when inference fails mid-rebuild, and HandleQuery degrades to serving
// prior-version features (flagged Stale) from the feature store when the
// cache tiers miss.
type Deployment struct {
	Cache *AsyncCache
	// Clock stamps features and times the query endpoints; swap in a
	// FakeClock for tests.
	Clock Clock

	// refreshMu serializes commits: each one reads the served value and
	// stores the next, so two must not interleave.
	refreshMu sync.Mutex
	// cur is everything a refresh commits — model, version, generation —
	// as one immutable value. A request or batch pass loads it once; a
	// commit stores a new one RCU-style and never blocks readers.
	cur atomic.Pointer[served]

	// ready flips once warmup completes (SetReady); NotReady reports
	// "warming up" until then.
	ready atomic.Bool

	// draining marks a deliberate shutdown in progress (BeginDrain):
	// /readyz answers 503 so routers stop sending fresh keys here, but
	// the query endpoints keep serving in-flight and router-retry
	// traffic until the grace period lapses. Exported on /metrics as
	// cosmo_draining so a router can distinguish drain from death.
	draining atomic.Bool

	// latency is the measured handler time of each timedEndpoints entry;
	// the map is read-only after construction.
	latency map[string]*Histogram

	// Batch accounting (see BatchTotals; the cache shards count the
	// rest).
	batchSucceeded  atomic.Uint64
	batchFailed     atomic.Uint64
	batchPanics     atomic.Uint64
	refreshFailures atomic.Uint64

	// Artifact accounting, counted by Artifact: loads of the KG artifact
	// vs refresh ticks that skipped it as unchanged (same stat identity
	// or same v3 table CRC; see kg.SnapshotStamp).
	snapshotReloads        atomic.Uint64
	snapshotReloadsSkipped atomic.Uint64

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

// NewDeploymentContext builds a deployment around the initial model
// (typically a *Resilient wrapping ModelResponder).
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
		Clock:         RealClock{},
		latency:       map[string]*Histogram{},
		maxBatchItems: cfg.MaxBatchItems,
	}
	for _, e := range timedEndpoints {
		d.latency[e] = NewHistogram(nil)
	}
	d.cur.Store(&served{responder: responder, version: 1})
	return d
}

// timedEndpoints are the query endpoints NewHTTPHandler times, in
// /metrics order.
var timedEndpoints = []string{"intent", "intentions", "related", "similar", "batch"}

// served is one committed refresh, read through Deployment.cur.
type served struct {
	responder ContextResponder
	version   int
	gen       Generation
}

// Generation is the immutable KG half of a refresh: a frozen snapshot,
// the similarity index built from it, and the stamp of the artifact it was
// loaded from and when (both zero for a snapshot frozen in process).
type Generation struct {
	Snap     *kg.Snapshot
	Sim      *kg.SimilarityIndex
	Stamp    kg.SnapshotStamp
	LoadedAt time.Time
}

// NewGeneration builds snap's similarity index and pairs the two.
func NewGeneration(snap *kg.Snapshot, stamp kg.SnapshotStamp) *Generation {
	return &Generation{Snap: snap, Sim: kg.NewSimilarityIndex(snap), Stamp: stamp}
}

// Generation returns the serving generation (empty until Install). The
// caller must not modify it; it stays valid across a concurrent swap.
func (d *Deployment) Generation() *Generation { return &d.cur.Load().gen }

// Install commits g as the serving generation at start-up, keeping the
// model and its version.
func (d *Deployment) Install(g *Generation) { d.editGeneration(func(cur *Generation) { *cur = *g }) }

// editGeneration commits the served value with its generation edited.
func (d *Deployment) editGeneration(f func(*Generation)) {
	d.refreshMu.Lock()
	defer d.refreshMu.Unlock()
	cur := d.cur.Load()
	gen := cur.gen
	f(&gen)
	d.cur.Store(&served{responder: cur.responder, version: cur.version, gen: gen})
}

// SetKG installs s beside the serving index; nil is ignored.
//
// SetKG, SetSimilarity, KG, Similarity and DailyRefreshContext are kept
// only for the bench/ harness, which assembles its nodes itself until
// it drives Refresh (ROADMAP item 2(f)). Everything else commits whole
// generations through Install and Refresh. kg's string and byte
// forwards Snapshot.RelatedSeqString and Snapshot.ContainsBytes are
// bench-only shims for the same reason: everything else calls the
// generic kg.RelatedOf and the snapshot lookups behind it. So are
// kg.SimilarityConfig and kg.BuildSimilarityIndex: everything else
// builds the index through NewGeneration (kg.NewSimilarityIndex).
func (d *Deployment) SetKG(s *kg.Snapshot) {
	if s != nil {
		d.editGeneration(func(g *Generation) { *g = Generation{Snap: s, Sim: g.Sim} })
	}
}

// SetSimilarity installs ix beside the serving snapshot; nil is
// ignored. Kept only for bench/ (see SetKG).
func (d *Deployment) SetSimilarity(ix *kg.SimilarityIndex) {
	if ix != nil {
		d.editGeneration(func(g *Generation) { g.Sim = ix })
	}
}

// KG returns the serving snapshot. Kept only for bench/ (see SetKG).
func (d *Deployment) KG() *kg.Snapshot { return d.Generation().Snap }

// Similarity returns the serving index. Kept only for bench/ (see SetKG).
func (d *Deployment) Similarity() *kg.SimilarityIndex { return d.Generation().Sim }

// SetReady marks warmup complete (or revokes readiness); /readyz
// reports 503 until the deployment is ready.
func (d *Deployment) SetReady(ready bool) { d.ready.Store(ready) }

// Ready reports whether warmup has completed.
func (d *Deployment) Ready() bool { return d.ready.Load() }

// BeginDrain starts a graceful drain: readiness flips off (so /readyz
// tells load balancers and routers to take this node out of rotation)
// and the deployment is marked draining. The query endpoints keep
// serving — in-flight requests and router retries still get answers —
// until the caller's grace period is over and it shuts the listener
// down. Idempotent.
func (d *Deployment) BeginDrain() {
	d.SetReady(false)
	d.draining.Store(true)
}

// Draining reports whether a graceful drain is in progress.
func (d *Deployment) Draining() bool { return d.draining.Load() }

// NotReady is the readiness rule that /readyz and cluster.LocalBackend
// both answer from: "" when the deployment takes new keys, otherwise
// why not — "draining" beats everything (the node said so itself, and
// a router must tell a deliberate drain from warmup or death), then
// "warming up", then "circuit breaker open".
func (d *Deployment) NotReady() string {
	if d.Draining() {
		return "draining"
	}
	if !d.Ready() {
		return "warming up"
	}
	if rs, ok := d.ResilienceStats(); ok && rs.BreakerState == BreakerOpen {
		return "circuit breaker open"
	}
	return ""
}

// Version returns the current model version.
func (d *Deployment) Version() int { return d.cur.Load().version }

// ResilienceStats reports the current responder's resilience counters
// when it exposes them (i.e. it is a *Resilient or equivalent); ok is
// false for plain responders.
func (d *Deployment) ResilienceStats() (ResilienceStats, bool) { return d.cur.Load().resilienceStats() }

func (s *served) resilienceStats() (ResilienceStats, bool) {
	if rr, ok := s.responder.(resilienceReporter); ok {
		return rr.ResilienceStats(), true
	}
	return ResilienceStats{}, false
}

// HandleQuery is the request path: check the async cache, return
// structured features on a hit; on a miss the query is queued for batch
// processing and, as graceful degradation, any prior feature still in
// the feature store is served flagged Stale — the caller gets possibly
// outdated intent features instead of none while the batch processor
// catches up. The responder is never invoked inline: the query is
// hashed once, and the cache lookup, store fallback and feedback
// increment run in one critical section of its shard's mutex, the only
// lock taken.
func (d *Deployment) HandleQuery(query string) (Feature, bool) { return handleQuery(d, query) }

// handleQuery is HandleQuery for a query of either key type; /batch
// passes its intent queries as bytes out of the request arena. One
// cache lookup decides: a hit copies nothing, since the feedback count
// is keyed by the hit's Feature.Query, the cache map's own key; a miss
// converts the query once, and that string is what the queue keeps,
// the store fallback reads and the feedback counter counts.
func handleQuery[K kg.Key](d *Deployment, query K) (Feature, bool) {
	return serve(shardOf(d.Cache, query), query)
}

// BatchResult reports one RunBatchContext pass. Every drained query is
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
// the enqueue-side half lives in CacheStats). Requeued, RequeueDropped
// and StaleServed are the cache shards' counts, read from Cache.Stats.
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
	st := d.Cache.Stats()
	return BatchTotals{
		Succeeded:      d.batchSucceeded.Load(),
		Failed:         d.batchFailed.Load(),
		Requeued:       uint64(st.BatchRequeued),
		RequeueDropped: uint64(st.RequeueDropped),
		Panics:         d.batchPanics.Load(),
		StaleServed:    uint64(st.StaleServed),
		RefreshFails:   d.refreshFailures.Load(),
	}
}

// RunBatchContext drains up to n queued queries, runs model inference
// for each, writes features to the feature store and installs them in
// the daily cache layer ("Batch Processing and Cache Update"). The
// responder path is fallible: a panic is recovered and counted, and a
// failed query is re-queued on its shard's bounded queue for a later
// batch (dropped, with a metric, when that queue is full) — no query is
// silently lost. The whole pass answers with one committed model and
// stamps its version, even across a concurrent Refresh.
func (d *Deployment) RunBatchContext(ctx context.Context, n int) BatchResult {
	queries := d.Cache.DrainQueue(n)
	cur := d.cur.Load()
	var res BatchResult
	res.Drained = len(queries)
	for _, q := range queries {
		f, err := d.respondSafe(ctx, cur.responder, q)
		if err != nil {
			res.Failed++
			d.batchFailed.Add(1)
			if d.Cache.Requeue(q) {
				res.Requeued++
			} else {
				res.Dropped++
			}
			continue
		}
		f.Query = q
		f.Version = cur.version
		f.CreatedAt = d.Clock.Now()
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
// interval it drains up to batchSize queued misses through
// RunBatchContext. When ctx is cancelled the worker drains the whole
// remaining queue in batchSize passes — not just one batch — so every
// query accepted before shutdown is processed; the drain stops early
// only when a pass makes no successful progress (responder fully down),
// leaving the re-queued remainder accounted for in BatchTotals. The
// returned channel is closed once the worker has stopped.
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

// DailyRefreshContext is Refresh with kgSnap beside the serving index
// (nil keeps the serving generation). Kept only for bench/ (see SetKG).
func (d *Deployment) DailyRefreshContext(ctx context.Context, responder ContextResponder, kgSnap *kg.Snapshot, yearlyTop int) error {
	d.refreshMu.Lock()
	defer d.refreshMu.Unlock()
	var next *Generation
	if kgSnap != nil {
		next = &Generation{Snap: kgSnap, Sim: d.cur.Load().gen.Sim}
	}
	return d.refresh(ctx, responder, next, yearlyTop)
}

// Refresh swaps in a refreshed model ("Model Deployment: dynamic
// ingestion of customer behavior session logs and efficient model
// updates") with the next generation (nil keeps the serving one) as one
// value, RCU-style, clears the daily cache layer, and rebuilds the
// yearly layer from the feedback loop's most-interacted queries. A
// negative yearlyTop is treated as 0.
//
// The refresh is atomic with respect to failure: every yearly feature is
// rebuilt through the new responder before anything is installed, so if
// inference fails (or panics, or the context is cancelled) mid-rebuild
// the previous responder, model version, yearly layer, feature store and
// generation all stay exactly as they were and the error is returned.
// Refreshes are serialized; concurrent calls queue behind each other.
func (d *Deployment) Refresh(ctx context.Context, responder ContextResponder, next *Generation, yearlyTop int) error {
	d.refreshMu.Lock()
	defer d.refreshMu.Unlock()
	return d.refresh(ctx, responder, next, yearlyTop)
}

// refresh is Refresh with refreshMu held.
func (d *Deployment) refresh(ctx context.Context, responder ContextResponder, next *Generation, yearlyTop int) error {
	cur := d.cur.Load()
	version := cur.version + 1
	counts := d.Cache.interactions()
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
	// the new model, version, generation and cache layers.
	gen := cur.gen
	if next != nil {
		gen = *next
	}
	d.cur.Store(&served{responder: responder, version: version, gen: gen})
	d.Cache.ReplaceYearly(features)
	d.Cache.ResetDaily()
	return nil
}

// Latency snapshots the measured handler time (ms) of one query
// endpoint: "intent", "intentions", "related", "similar" or "batch".
// Any other name reads as an empty histogram.
func (d *Deployment) Latency(endpoint string) HistogramSnapshot {
	if h := d.latency[endpoint]; h != nil {
		return h.Snapshot()
	}
	return HistogramSnapshot{}
}

// TopInteractions returns the feedback loop's most frequent queries.
func (d *Deployment) TopInteractions(n int) []string {
	counts := d.Cache.interactions()
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
