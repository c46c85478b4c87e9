package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cosmo/internal/cluster"
)

// span is one timed interval at a layer boundary. Parent is the index
// of the span that caused it (-1 for a request); spans of one request
// share Req. Times are nanoseconds since the tracer's epoch.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

const (
	spanRequest = "loadgen.request"
	spanAttempt = "cluster.attempt"
	spanHandler = "serving.handler"
)

// tracer records spans from the benchmark's own wrappers: the generator
// (request), a cluster.Backend decorator (attempt) and an http.Handler
// middleware (node handler). Traced replays use one closed-loop client,
// so spans nest by time and the current request is a single counter.
// While off, the wrappers only load one atomic flag.
type tracer struct {
	on    atomic.Bool
	epoch time.Time

	mu      sync.Mutex
	spans   []span
	req     int64
	reqSpan int
	attempt [numNodes]int // latest attempt span per node
}

func newTracer() *tracer {
	return &tracer{epoch: now(), spans: make([]span, 0, 1<<16), reqSpan: -1}
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// snapshot copies the first n spans (late closes of cancelled hedge
// losers may still write to the live slice).
func (t *tracer) snapshot(n int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[:n]...)
}

func (t *tracer) setRequestSpan(i int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqSpan = i
}

func (t *tracer) setAttempt(node, i int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempt[node] = i
}

// open appends a span; pick chooses its parent under the lock.
func (t *tracer) open(name string, newReq bool, pick func() int) int {
	if !t.on.Load() {
		return -1
	}
	at := now().Sub(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	if newReq {
		t.req++
	}
	t.spans = append(t.spans, span{Name: name, Parent: pick(), Req: t.req, Start: int64(at)})
	return len(t.spans) - 1
}

func (t *tracer) close(i int, at time.Time) {
	if i < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = int64(at.Sub(t.epoch))
}

// wrap records a request span around every operation of fn, ending it
// when the response arrived, before any output check.
func (t *tracer) wrap(fn opFunc) opFunc {
	return func(ctx context.Context, i int, check bool) (time.Time, outcome, int) {
		idx := t.open(spanRequest, true, func() int { return -1 })
		t.setRequestSpan(idx)
		done, out, n := fn(ctx, i, check)
		t.close(idx, done)
		return done, out, n
	}
}

// tracedBackend is the benchmark's cluster.Backend decorator; it has
// the shape of faults.WrapBackend and records one span per attempt.
type tracedBackend struct {
	inner cluster.Backend
	tr    *tracer
	node  int
}

func (b *tracedBackend) Do(ctx context.Context, path, rawQuery string) (cluster.Result, error) {
	idx := b.tr.open(spanAttempt, false, func() int { return b.tr.reqSpan })
	if idx >= 0 {
		b.tr.setAttempt(b.node, idx)
	}
	res, err := b.inner.Do(ctx, path, rawQuery)
	b.tr.close(idx, now())
	return res, err
}

func (b *tracedBackend) Check(ctx context.Context) cluster.Health { return b.inner.Check(ctx) }

// tracedHandler is the middleware around serving.NewHTTPHandler. Its
// parent is the open attempt on this node for the current request, or
// the request itself when the generator bypasses the router (/batch).
type tracedHandler struct {
	inner http.Handler
	tr    *tracer
	node  int
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/readyz" {
		h.inner.ServeHTTP(w, r)
		return
	}
	t := h.tr
	idx := t.open(spanHandler, false, func() int {
		if a := t.attempt[h.node]; a >= 0 && a < len(t.spans) && t.spans[a].Req == t.req && t.spans[a].End == 0 && t.spans[a].Name == spanAttempt {
			return a
		}
		return t.reqSpan
	})
	h.inner.ServeHTTP(w, r)
	t.close(idx, now())
}

// traceStats is the per-layer reading of one traced segment.
type traceStats struct {
	requests                 int
	request, routeSelf       time.Duration // medians
	attempt, attemptP99, hop time.Duration
	handler, handlerP99      time.Duration
	attributed               float64
}

// analyse reads the spans recorded in [from, to). Self time is a span's
// duration minus the part of it its children cover.
func (t *tracer) analyse(from, to int) traceStats {
	spans := t.snapshot(to)
	type interval struct{ start, end int64 }
	children := map[int][]interval{}
	for i := from; i < to; i++ {
		sp := spans[i]
		if sp.End == 0 || sp.Parent < from {
			continue
		}
		children[sp.Parent] = append(children[sp.Parent], interval{sp.Start, sp.End})
	}
	// covered is the length of the union of a span's children, clipped
	// to the span (a hedge's two attempts overlap).
	covered := func(i int) time.Duration {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].start < kids[b].start })
		var sum, upTo int64 = 0, spans[i].Start
		for _, k := range kids {
			s, e := k.start, k.end
			if s < upTo {
				s = upTo
			}
			if e > spans[i].End {
				e = spans[i].End
			}
			if e > s {
				sum += e - s
				upTo = e
			}
		}
		return time.Duration(sum)
	}
	var request, routeSelf, attempt, hop, handler []time.Duration
	for i := from; i < to; i++ {
		sp := spans[i]
		if sp.End == 0 {
			continue
		}
		d := time.Duration(sp.End - sp.Start)
		switch sp.Name {
		case spanRequest:
			request = append(request, d)
			routeSelf = append(routeSelf, d-covered(i))
		case spanAttempt:
			attempt = append(attempt, d)
			// A cancelled hedge loser has no handler that finished
			// inside it; it says nothing about the hop.
			if c := covered(i); c > 0 {
				hop = append(hop, d-c)
			}
		case spanHandler:
			handler = append(handler, d)
		}
	}
	for _, ds := range [][]time.Duration{request, routeSelf, attempt, hop, handler} {
		sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
	}
	st := traceStats{
		request:    quantile(request, 0.5),
		routeSelf:  quantile(routeSelf, 0.5),
		attempt:    quantile(attempt, 0.5),
		attemptP99: quantile(attempt, 0.99),
		hop:        quantile(hop, 0.5),
		handler:    quantile(handler, 0.5),
		handlerP99: quantile(handler, 0.99),
	}
	if st.request > 0 {
		// Medians of the three self times over the median request: on a
		// direct request there is no attempt, hop is 0 and the request's
		// self time is the client, loopback and server parse.
		st.attributed = float64(st.routeSelf+st.hop+st.handler) / float64(st.request)
	}
	return st
}

// write dumps every span to <dir>/trace-<workload>.json.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.snapshot(t.len())}
	err = json.NewEncoder(f).Encode(doc)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("write %s: %w", path, err)
	}
	return path, nil
}
