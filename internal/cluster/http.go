package cluster

import (
	"errors"
	"net/http"

	"cosmo/internal/serving"
)

// NewHTTPHandler exposes a Router over HTTP with the same query surface
// as a single cosmo-serve node:
//
//	GET /intent?q=...      routed by q
//	GET /intentions?id=... routed by id
//	GET /related?id=...    routed by id
//	GET /similar?q=...     routed by q
//	GET /kg                routed by the empty key (a stable node)
//	GET /metrics           router + per-node counters (plaintext)
//	GET /readyz            503 only when zero nodes are eligible
//	GET /healthz           liveness (the router process is up)
//
// Query endpoints answer the chosen node's status, content type and
// body verbatim; 503 means no node was eligible and 502 means every
// eligible replica failed.
func NewHTTPHandler(r *Router) http.Handler {
	mux := http.NewServeMux()
	proxy := func(keyParam string) http.HandlerFunc {
		return func(w http.ResponseWriter, req *http.Request) {
			key := serving.QueryParam(req.URL.RawQuery, keyParam)
			if key == "" {
				http.Error(w, "missing "+keyParam+" parameter", http.StatusBadRequest)
				return
			}
			serveRouted(r, w, req, key)
		}
	}
	mux.HandleFunc("/intent", proxy("q"))
	mux.HandleFunc("/intentions", proxy("id"))
	mux.HandleFunc("/related", proxy("id"))
	mux.HandleFunc("/similar", proxy("q"))
	mux.HandleFunc("/kg", func(w http.ResponseWriter, req *http.Request) {
		serveRouted(r, w, req, "")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = r.WriteMetrics(w) //cosmo:lint-ignore dropped-error best-effort metrics response; a write failure means the client is gone
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, req *http.Request) {
		if r.EligibleNodes() == 0 {
			http.Error(w, "no eligible nodes", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ready")) //cosmo:lint-ignore dropped-error best-effort readiness response; a write failure means the client is gone
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok")) //cosmo:lint-ignore dropped-error best-effort liveness response; a write failure means the client is gone
	})
	return mux
}

// serveRouted routes one request and relays the winning node's answer.
func serveRouted(r *Router, w http.ResponseWriter, req *http.Request, key string) {
	res, err := r.Do(req.Context(), Request{
		Key:      key,
		Path:     req.URL.Path,
		RawQuery: req.URL.RawQuery,
	})
	if err != nil {
		if errors.Is(err, ErrNoEligibleNodes) {
			http.Error(w, "no eligible nodes", http.StatusServiceUnavailable)
			return
		}
		http.Error(w, "all replicas failed", http.StatusBadGateway)
		return
	}
	if res.ContentType != "" {
		w.Header().Set("Content-Type", res.ContentType)
	}
	w.WriteHeader(res.Status)
	_, _ = w.Write(res.Body) //cosmo:lint-ignore dropped-error best-effort response write; a write failure means the client is gone
}
