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
	"time"

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
//	                               an exact scan of the generation's index
//	POST /batch                 -> JSON array of lookups answered in one
//	                               round trip (see AppendBatch)
//	GET  /kg                    -> snapshot size summary (JSON)
//	GET  /metrics               -> Prometheus text metrics (WriteMetrics)
//	GET  /healthz               -> liveness (the process is up)
//	GET  /readyz                -> readiness: 503 until warmup completes
//	                               (SetReady) and again while the
//	                               responder circuit breaker is open
//
// The five query endpoints are timed on d.Clock, once per request
// around the whole handler, into their own latency histogram
// (Deployment.Latency, cosmo_request_latency_ms{endpoint=...}).
//
// The KG endpoints answer 503 until Install commits a generation. Each
// handler loads the served value once, so every request answers from a
// single refresh: model version, snapshot and similarity index together.
//
// Every query response is JSON: an appender in encode.go builds it in a
// pooled buffer (wire.Get) and writeJSON sends it, byte-identical to the
// encoding/json output it replaced, trailing newline included, so the
// steady-state request path allocates nothing for encoding. The Accept
// header is not read.
func NewHTTPHandler(d *Deployment) http.Handler {
	mux := http.NewServeMux()
	timed := func(endpoint string, h http.HandlerFunc) {
		hist := d.latency[endpoint]
		mux.HandleFunc("/"+endpoint, func(w http.ResponseWriter, r *http.Request) {
			start := d.Clock.Now()
			h(w, r)
			hist.Observe(float64(d.Clock.Now().Sub(start)) / float64(time.Millisecond))
		})
	}
	timed("intent", func(w http.ResponseWriter, r *http.Request) {
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
	timed("intentions", func(w http.ResponseWriter, r *http.Request) {
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
		k := parseK(QueryParam(r.URL.RawQuery, "k"))
		buf := wire.Get()
		buf.B = AppendIntentionsJSON(buf.B[:0], snap, id, k)
		writeJSON(w, http.StatusOK, buf)
	})
	timed("related", func(w http.ResponseWriter, r *http.Request) {
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
		k := parseK(QueryParam(r.URL.RawQuery, "k"))
		buf := wire.Get()
		buf.B = AppendRelatedJSON(buf.B[:0], snap, id, k)
		writeJSON(w, http.StatusOK, buf)
	})
	timed("similar", func(w http.ResponseWriter, r *http.Request) {
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
		k := parseK(QueryParam(r.URL.RawQuery, "k"))
		matches := ix.Lookup(q, k)
		buf := wire.Get()
		buf.B = AppendSimilarJSON(buf.B[:0], q, matches)
		writeJSON(w, http.StatusOK, buf)
	})
	timed("batch", func(w http.ResponseWriter, r *http.Request) {
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
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = d.WriteMetrics(w) //cosmo:lint-ignore dropped-error best-effort metrics response; a write failure means the client is gone
	})
	return mux
}

// WriteMetrics writes the node's /metrics page: cache, batch,
// resilience and readiness counters, the per-endpoint handler latency
// histograms, and the serving generation's KG and artifact identity.
func (d *Deployment) WriteMetrics(w io.Writer) error {
	var e Exposition
	cur := d.cur.Load()
	stats := d.Cache.Stats()
	e.Int("cosmo_cache_hits_total", int64(stats.Hits))
	e.Int("cosmo_cache_misses_total", int64(stats.Misses))
	e.Int("cosmo_cache_yearly_hits_total", int64(stats.YearlyHits))
	e.Int("cosmo_cache_daily_hits_total", int64(stats.DailyHits))
	e.Int("cosmo_cache_evictions_total", int64(stats.Evictions))
	e.Int("cosmo_cache_daily_size", int64(stats.DailySize))
	e.Int("cosmo_cache_yearly_size", int64(stats.YearlySize))
	e.Int("cosmo_cache_shards", int64(d.Cache.NumShards()))
	e.Int("cosmo_batch_queue_depth", int64(stats.BatchQueued))
	e.Int("cosmo_batch_queue_dropped_total", int64(stats.BatchDropped))
	e.Int("cosmo_batch_enqueued_total", int64(stats.BatchEnqueued))
	e.Uint("cosmo_batch_processed_total", d.batchSucceeded.Load())
	e.Int("cosmo_batch_requeued_total", int64(stats.BatchRequeued))
	e.Int("cosmo_batch_requeue_dropped_total", int64(stats.RequeueDropped))
	e.Uint("cosmo_responder_failures_total", d.batchFailed.Load())
	// Panics recovered at the batch/refresh layer plus those the
	// resilience wrapper converted to errors (disjoint events).
	panics := d.batchPanics.Load()
	rs, hasResilience := cur.resilienceStats()
	if hasResilience {
		panics += rs.Panics
	}
	e.Uint("cosmo_responder_panics_total", panics)
	e.Int("cosmo_stale_served_total", int64(stats.StaleServed))
	e.Uint("cosmo_refresh_failures_total", d.refreshFailures.Load())
	if hasResilience {
		e.Uint("cosmo_responder_calls_total", rs.Calls)
		e.Uint("cosmo_responder_retries_total", rs.Retries)
		e.Uint("cosmo_responder_attempt_failures_total", rs.Failures)
		e.Uint("cosmo_responder_timeouts_total", rs.Timeouts)
		e.Int("cosmo_breaker_state", int64(rs.BreakerState))
		e.Uint("cosmo_breaker_opens_total", rs.BreakerOpens)
		e.Uint("cosmo_breaker_rejects_total", rs.BreakerRejects)
	}
	e.Bool("cosmo_ready", d.Ready())
	e.Bool("cosmo_draining", d.Draining())
	for _, endpoint := range timedEndpoints {
		e.Histogram("cosmo_request_latency_ms", d.latency[endpoint].Snapshot(), "endpoint", endpoint)
	}
	e.Int("cosmo_model_version", int64(cur.version))
	e.Int("cosmo_feature_store_size", int64(stats.StoreSize))
	if snap := cur.gen.Snap; snap != nil {
		e.Int("cosmo_kg_nodes", int64(snap.NumNodes()))
		e.Int("cosmo_kg_edges", int64(snap.NumEdges()))
		e.Bool("cosmo_kg_snapshot_mmap", snap.Mapped())
	}
	if loaded := cur.gen.LoadedAt; !loaded.IsZero() {
		e.Int("cosmo_kg_artifact_info", 1, "table_crc", fmt.Sprintf("%016x", cur.gen.Stamp.TableCRC))
		e.Int("cosmo_kg_loaded_at_seconds", loaded.Unix())
	}
	e.Uint("cosmo_snapshot_reloads_total", d.snapshotReloads.Load())
	e.Uint("cosmo_snapshot_reload_skipped_total", d.snapshotReloadsSkipped.Load())
	if ix := cur.gen.Sim; ix != nil {
		e.Int("cosmo_similarity_indexed", int64(ix.NumIndexed()))
	}
	// Cumulative heap allocation count: cosmo-loadgen samples this
	// before and after a run to report allocations per request.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e.Uint("cosmo_go_mallocs_total", ms.Mallocs)
	_, err := e.WriteTo(w)
	return err
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

// parseK parses the k parameter of GET /intentions, /related and
// /similar. An absent or malformed value counts as 0, and one beyond
// int's range saturates, as /batch's parser saturates (Atoi returns the
// saturated value with ErrRange); clampK then bounds it.
func parseK(s string) int {
	if k, err := strconv.Atoi(s); err == nil || errors.Is(err, strconv.ErrRange) {
		return clampK(k)
	}
	return clampK(0)
}

// clampK is the one bound on a requested result count, for GET and
// /batch alike: 0 or below means 10, and above 1000 means 1000, so a
// hostile k cannot force an unbounded response.
func clampK(k int) int {
	if k <= 0 {
		return 10
	}
	return min(k, 1000)
}
