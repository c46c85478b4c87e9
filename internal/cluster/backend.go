package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net/http"

	"cosmo/internal/serving"
)

// Health is a node's probed state, ordered by desirability.
type Health int32

const (
	// HealthReady: the node answers /readyz 200 and takes new keys.
	HealthReady Health = iota
	// HealthDraining: the node announced a graceful drain — it still
	// answers in-flight and retry traffic but must leave replica sets.
	HealthDraining
	// HealthDown: the probe failed or the node reported not-ready.
	HealthDown
)

// String renders the state for metrics and logs.
func (h Health) String() string {
	switch h {
	case HealthReady:
		return "ready"
	case HealthDraining:
		return "draining"
	case HealthDown:
		return "down"
	}
	return fmt.Sprintf("Health(%d)", int32(h))
}

// Result is one backend response: the status, content type and body of
// the proxied query endpoint. Body is owned by the caller.
type Result struct {
	Status      int
	ContentType string
	Body        []byte
}

// Backend is one serving node as the router sees it: a query transport
// plus a health probe. Implementations must be safe for concurrent use
// and honor ctx cancellation in Do (a hedged race cancels the loser).
// The router reuses the ctx it passes to Do: keep none of it past Do.
type Backend interface {
	// Do proxies one GET query (path like "/intent", rawQuery like
	// "q=camping") and returns the node's response. A transport-level
	// failure (refused connection, timeout) returns an error; an HTTP
	// error status is returned in Result for the router to classify.
	Do(ctx context.Context, path, rawQuery string) (Result, error)
	// Check probes the node's /readyz-equivalent state.
	Check(ctx context.Context) Health
}

// LocalBackend wraps an in-process serving.Deployment as a Backend —
// the 1-node case, and the hermetic substrate for multi-node chaos
// harnesses: requests run straight through the deployment's HTTP
// handler with no sockets.
type LocalBackend struct {
	dep     *serving.Deployment
	handler http.Handler
}

// NewLocalBackend builds a Backend over the deployment's HTTP handler.
func NewLocalBackend(dep *serving.Deployment) *LocalBackend {
	return &LocalBackend{dep: dep, handler: serving.NewHTTPHandler(dep)}
}

// Do runs the request through the in-process handler.
func (b *LocalBackend) Do(ctx context.Context, path, rawQuery string) (Result, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://local"+path, nil)
	if err != nil {
		return Result{}, err
	}
	req.URL.RawQuery = rawQuery
	rec := newRecorder()
	b.handler.ServeHTTP(rec, req)
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	body := make([]byte, rec.body.Len())
	copy(body, rec.body.Bytes())
	return Result{
		Status:      rec.status,
		ContentType: rec.header.Get("Content-Type"),
		Body:        body,
	}, nil
}

// Check answers from the rule /readyz answers from
// (serving.Deployment.NotReady), without a round trip.
func (b *LocalBackend) Check(ctx context.Context) Health {
	if ctx.Err() != nil {
		return HealthDown
	}
	switch b.dep.NotReady() {
	case "":
		return HealthReady
	case "draining":
		return HealthDraining
	}
	return HealthDown
}

// recorder is a minimal in-process http.ResponseWriter (the stdlib's
// httptest recorder, without importing a test package into the serving
// tier).
type recorder struct {
	status int
	header http.Header
	body   bytes.Buffer
}

func newRecorder() *recorder {
	return &recorder{status: http.StatusOK, header: http.Header{}}
}

func (r *recorder) Header() http.Header { return r.header }

func (r *recorder) WriteHeader(status int) { r.status = status }

func (r *recorder) Write(p []byte) (int, error) { return r.body.Write(p) }
