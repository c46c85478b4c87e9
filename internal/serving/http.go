package serving

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"

	"cosmo/internal/wire"
)

// NewHTTPHandler exposes a deployment over HTTP:
//
//	GET  /intent?q=<query>      -> structured intent feature (200) or 202
//	                               when queued for batch processing
//	GET  /intentions?id=<node>  -> KG intentions for a node, best first
//	                               (frozen-snapshot read, no locks)
//	GET  /related?id=<node>     -> products sharing intentions with the
//	                               node (two-hop frozen-snapshot walk)
//	GET  /similar?q=<text>      -> intentions similar to free text via
//	                               the generation's LSH ANN index
//	POST /batch                 -> JSON array of lookups answered in one
//	                               round trip (see AppendBatch)
//	GET  /kg                    -> snapshot size summary (JSON)
//	GET  /metrics               -> Prometheus-style plaintext metrics:
//	                               cache, batch, resilience, latency and
//	                               KG counters
//	GET  /healthz               -> liveness (the process is up)
//	GET  /readyz                -> readiness: 503 until warmup completes
//	                               (SetReady) and again while the
//	                               responder circuit breaker is open
//
// The KG endpoints answer 503 until Install commits a generation. Each
// handler loads the served value once, so every request answers from a
// single refresh: model version, snapshot and ANN index together.
//
// Every query response is JSON: an appender in encode.go builds it in a
// pooled buffer (wire.Get) and writeJSON sends it, byte-identical to the
// encoding/json output it replaced, trailing newline included, so the
// steady-state request path allocates nothing for encoding. The Accept
// header is not read.
func NewHTTPHandler(d *Deployment) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/intent", func(w http.ResponseWriter, r *http.Request) {
		q := QueryParam(r.URL.RawQuery, "q")
		if q == "" {
			http.Error(w, "missing q parameter", http.StatusBadRequest)
			return
		}
		f, ok := d.HandleQuery(q)
		buf := wire.Get()
		if !ok {
			buf.B = AppendQueuedJSON(buf.B[:0], q)
			writeJSON(w, http.StatusAccepted, buf)
			return
		}
		buf.B = AppendFeatureJSON(buf.B[:0], &f)
		writeJSON(w, http.StatusOK, buf)
	})
	mux.HandleFunc("/intentions", func(w http.ResponseWriter, r *http.Request) {
		id := QueryParam(r.URL.RawQuery, "id")
		if id == "" {
			http.Error(w, "missing id parameter", http.StatusBadRequest)
			return
		}
		snap := d.Generation().Snap
		if snap == nil {
			http.Error(w, "knowledge graph not loaded", http.StatusServiceUnavailable)
			return
		}
		k := parseK(QueryParam(r.URL.RawQuery, "k"), 10)
		buf := wire.Get()
		buf.B = AppendIntentionsJSON(buf.B[:0], snap, id, k)
		writeJSON(w, http.StatusOK, buf)
	})
	mux.HandleFunc("/related", func(w http.ResponseWriter, r *http.Request) {
		id := QueryParam(r.URL.RawQuery, "id")
		if id == "" {
			http.Error(w, "missing id parameter", http.StatusBadRequest)
			return
		}
		snap := d.Generation().Snap
		if snap == nil {
			http.Error(w, "knowledge graph not loaded", http.StatusServiceUnavailable)
			return
		}
		k := parseK(QueryParam(r.URL.RawQuery, "k"), 10)
		buf := wire.Get()
		buf.B = AppendRelatedJSON(buf.B[:0], snap, id, k)
		writeJSON(w, http.StatusOK, buf)
	})
	mux.HandleFunc("/similar", func(w http.ResponseWriter, r *http.Request) {
		q := QueryParam(r.URL.RawQuery, "q")
		if q == "" {
			http.Error(w, "missing q parameter", http.StatusBadRequest)
			return
		}
		ix := d.Generation().Sim
		if ix == nil {
			http.Error(w, "similarity index not loaded", http.StatusServiceUnavailable)
			return
		}
		k := parseK(QueryParam(r.URL.RawQuery, "k"), 10)
		matches := ix.Lookup(q, k)
		buf := wire.Get()
		buf.B = AppendSimilarJSON(buf.B[:0], q, matches)
		writeJSON(w, http.StatusOK, buf)
	})
	mux.HandleFunc("/batch", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		body := wire.Get()
		var err error
		body.B, err = readAllInto(body.B[:0], http.MaxBytesReader(w, r.Body, MaxBatchBodyBytes))
		if err != nil {
			wire.Put(body)
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				http.Error(w, "request body too large", http.StatusRequestEntityTooLarge)
				return
			}
			http.Error(w, "reading request body failed", http.StatusBadRequest)
			return
		}
		resp := wire.Get()
		var status int
		resp.B, status = d.AppendBatch(resp.B[:0], body.B)
		wire.Put(body)
		if status != http.StatusOK {
			switch status {
			case http.StatusRequestEntityTooLarge:
				http.Error(w, "too many batch items", status)
			default:
				http.Error(w, "malformed batch body", status)
			}
			wire.Put(resp)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("/kg", func(w http.ResponseWriter, r *http.Request) {
		snap := d.Generation().Snap
		if snap == nil {
			http.Error(w, "knowledge graph not loaded", http.StatusServiceUnavailable)
			return
		}
		buf := wire.Get()
		buf.B = AppendKGJSON(buf.B[:0], snap)
		writeJSON(w, http.StatusOK, buf)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok")) //cosmo:lint-ignore dropped-error best-effort liveness response; a write failure means the client is gone
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if why := d.NotReady(); why != "" {
			http.Error(w, why, http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ready")) //cosmo:lint-ignore dropped-error best-effort readiness response; a write failure means the client is gone
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		cur := d.cur.Load()
		hist := d.LatencySnapshot()
		stats := d.Cache.Stats()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		fmt.Fprintf(w, "cosmo_cache_hits_total %d\n", stats.Hits)
		fmt.Fprintf(w, "cosmo_cache_misses_total %d\n", stats.Misses)
		fmt.Fprintf(w, "cosmo_cache_yearly_hits_total %d\n", stats.YearlyHits)
		fmt.Fprintf(w, "cosmo_cache_daily_hits_total %d\n", stats.DailyHits)
		fmt.Fprintf(w, "cosmo_cache_evictions_total %d\n", stats.Evictions)
		fmt.Fprintf(w, "cosmo_cache_daily_size %d\n", stats.DailySize)
		fmt.Fprintf(w, "cosmo_cache_yearly_size %d\n", stats.YearlySize)
		fmt.Fprintf(w, "cosmo_cache_shards %d\n", d.Cache.NumShards())
		fmt.Fprintf(w, "cosmo_batch_queue_depth %d\n", stats.BatchQueued)
		fmt.Fprintf(w, "cosmo_batch_queue_dropped_total %d\n", stats.BatchDropped)
		bt := d.BatchTotals()
		fmt.Fprintf(w, "cosmo_batch_enqueued_total %d\n", stats.BatchEnqueued)
		fmt.Fprintf(w, "cosmo_batch_processed_total %d\n", bt.Succeeded)
		fmt.Fprintf(w, "cosmo_batch_requeued_total %d\n", bt.Requeued)
		fmt.Fprintf(w, "cosmo_batch_requeue_dropped_total %d\n", bt.RequeueDropped)
		fmt.Fprintf(w, "cosmo_responder_failures_total %d\n", bt.Failed)
		// Panics recovered at the batch/refresh layer plus those the
		// resilience wrapper converted to errors (disjoint events).
		panics := bt.Panics
		rs, hasResilience := cur.resilienceStats()
		if hasResilience {
			panics += rs.Panics
		}
		fmt.Fprintf(w, "cosmo_responder_panics_total %d\n", panics)
		fmt.Fprintf(w, "cosmo_stale_served_total %d\n", bt.StaleServed)
		fmt.Fprintf(w, "cosmo_refresh_failures_total %d\n", bt.RefreshFails)
		if hasResilience {
			fmt.Fprintf(w, "cosmo_responder_calls_total %d\n", rs.Calls)
			fmt.Fprintf(w, "cosmo_responder_retries_total %d\n", rs.Retries)
			fmt.Fprintf(w, "cosmo_responder_attempt_failures_total %d\n", rs.Failures)
			fmt.Fprintf(w, "cosmo_responder_timeouts_total %d\n", rs.Timeouts)
			fmt.Fprintf(w, "cosmo_breaker_state %d\n", rs.BreakerState)
			fmt.Fprintf(w, "cosmo_breaker_opens_total %d\n", rs.BreakerOpens)
			fmt.Fprintf(w, "cosmo_breaker_rejects_total %d\n", rs.BreakerRejects)
		}
		ready := 0
		if d.Ready() {
			ready = 1
		}
		fmt.Fprintf(w, "cosmo_ready %d\n", ready)
		draining := 0
		if d.Draining() {
			draining = 1
		}
		fmt.Fprintf(w, "cosmo_draining %d\n", draining)
		fmt.Fprintf(w, "cosmo_request_latency_ms{quantile=\"0.5\"} %g\n", hist.Quantile(0.50))
		fmt.Fprintf(w, "cosmo_request_latency_ms{quantile=\"0.99\"} %g\n", hist.Quantile(0.99))
		var cum int64
		for i, bound := range hist.Bounds {
			cum += hist.Counts[i]
			fmt.Fprintf(w, "cosmo_request_latency_ms_bucket{le=\"%g\"} %d\n", bound, cum)
		}
		fmt.Fprintf(w, "cosmo_request_latency_ms_bucket{le=\"+Inf\"} %d\n", hist.Total)
		fmt.Fprintf(w, "cosmo_request_latency_ms_sum %g\n", hist.SumMs)
		fmt.Fprintf(w, "cosmo_request_latency_ms_count %d\n", hist.Total)
		fmt.Fprintf(w, "cosmo_model_version %d\n", cur.version)
		fmt.Fprintf(w, "cosmo_feature_store_size %d\n", d.Store.Len())
		if snap := cur.gen.Snap; snap != nil {
			fmt.Fprintf(w, "cosmo_kg_nodes %d\n", snap.NumNodes())
			fmt.Fprintf(w, "cosmo_kg_edges %d\n", snap.NumEdges())
			mapped := 0
			if snap.Mapped() {
				mapped = 1
			}
			fmt.Fprintf(w, "cosmo_kg_snapshot_mmap %d\n", mapped)
		}
		fmt.Fprintf(w, "cosmo_snapshot_reloads_total %d\n", d.snapshotReloads.Load())
		fmt.Fprintf(w, "cosmo_snapshot_reload_skipped_total %d\n", d.snapshotReloadsSkipped.Load())
		if ix := cur.gen.Sim; ix != nil {
			fmt.Fprintf(w, "cosmo_similarity_indexed %d\n", ix.NumIndexed())
		}
		// Cumulative heap allocation count: cosmo-loadgen samples this
		// before and after a run to report allocations per request.
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		fmt.Fprintf(w, "cosmo_go_mallocs_total %d\n", ms.Mallocs)
	})
	return mux
}

// QueryParam returns the first value of name in a raw URL query — what
// url.ParseQuery(raw) followed by Get(name) returns, malformed segments
// skipped the same way — by scanning raw once instead of building the
// url.Values map; it allocates only when the value itself needs
// unescaping. The node handlers and the router's proxy read their
// q/id/k parameters with it.
func QueryParam(raw, name string) string {
	for raw != "" {
		var seg string
		seg, raw, _ = strings.Cut(raw, "&")
		if seg == "" || strings.Contains(seg, ";") {
			continue
		}
		key, value, _ := strings.Cut(seg, "=")
		if key, err := url.QueryUnescape(key); err != nil || key != name {
			continue
		}
		if value, err := url.QueryUnescape(value); err == nil {
			return value
		}
	}
	return ""
}

// writeJSON sends one JSON value built in buf with the given status,
// adds the trailing newline json.Encoder.Encode wrote, and returns buf
// to the pool. It is the only response write of the query endpoints.
func writeJSON(w http.ResponseWriter, status int, buf *wire.Buffer) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	buf.B = append(buf.B, '\n')
	_, _ = w.Write(buf.B) //cosmo:lint-ignore dropped-error best-effort response write; a write failure means the client is gone
	wire.Put(buf)
}

// readAllInto is io.ReadAll into a caller-owned (pooled) buffer: the
// buffer grows only past its previous high-water mark, so steady-state
// batch reads allocate nothing.
func readAllInto(dst []byte, r io.Reader) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if errors.Is(err, io.EOF) {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// parseK parses a positive result-count parameter, falling back to def
// on absent or malformed input and capping at 1000 so a hostile k
// cannot force an unbounded response.
func parseK(s string, def int) int {
	if s == "" {
		return def
	}
	k, err := strconv.Atoi(s)
	if err != nil || k <= 0 {
		return def
	}
	if k > 1000 {
		return 1000
	}
	return k
}
