package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cosmo/internal/cluster"
	"cosmo/internal/serving"
	"cosmo/internal/wire"
)

const (
	zipfS       = 1.1
	unknownRate = 0.02
	// seqLen is the length of a generated request sequence; a phase that
	// outruns it wraps around.
	seqLen = 1 << 17
	// checkEvery is the share of measured responses compared with the
	// oracle; during warm-up every response is compared.
	checkEvery = 64
)

// op is one generated lookup: an endpoint and an index into the key
// table of that endpoint's key space.
type op struct {
	ep  endpoint
	key int
}

// genOps draws n ops from the workload's mix: keys Zipf(1.1) over the
// popularity order, unknownRate of them from the unknown tail. The same
// (seed, mix, table sizes) always gives the same sequence.
func genOps(seed int64, mix []mixEntry, nHeads, nQueries, n int) []op {
	rng := rand.New(rand.NewSource(seed))
	zh := rand.NewZipf(rng, zipfS, 1, uint64(nHeads-1))
	zq := rand.NewZipf(rng, zipfS, 1, uint64(nQueries-1))
	ops := make([]op, n)
	for i := range ops {
		x, ep := rng.Float64(), mix[len(mix)-1].ep
		for _, m := range mix {
			if x < m.share {
				ep = m.ep
				break
			}
			x -= m.share
		}
		known, z := nQueries, zq
		if ep == epIntentions || ep == epRelated {
			known, z = nHeads, zh
		}
		key := int(z.Uint64())
		if rng.Float64() < unknownRate {
			key = known + rng.Intn(unknownKeys)
		}
		ops[i] = op{ep: ep, key: key}
	}
	return ops
}

// seqHash fingerprints a request sequence (FNV-1a).
func seqHash(ops []op) uint64 {
	h := uint64(14695981039346656037)
	for _, o := range ops {
		for _, v := range [2]uint64{uint64(o.ep), uint64(o.key)} {
			for s := 0; s < 64; s += 8 {
				h ^= (v >> s) & 0xff
				h *= 1099511628211
			}
		}
	}
	return h
}

// outcome classifies one finished operation.
type outcome uint8

const (
	outOK     outcome = iota
	outQueued         // 202: accepted for batch processing, not a failure
	outFailed         // errored, refused, or failed the output check
)

// opFunc performs the i-th operation of a sequence and reports when the
// response arrived (before any output check), what happened, and the
// response size.
type opFunc func(ctx context.Context, i int, check bool) (done time.Time, out outcome, respBytes int)

// sample is one measured operation; due is relative to the phase start.
type sample struct {
	due, lat, lag time.Duration
	respBytes     int
}

// phaseResult is everything one load phase observed.
type phaseResult struct {
	start              time.Time
	elapsed            time.Duration
	samples            []sample
	ok, queued, failed int
}

func (p *phaseResult) attempted() int { return p.ok + p.queued + p.failed }

func (p *phaseResult) add(q phaseResult) {
	p.samples = append(p.samples, q.samples...)
	p.ok += q.ok
	p.queued += q.queued
	p.failed += q.failed
}

func (p *phaseResult) count(out outcome) {
	switch out {
	case outOK:
		p.ok++
	case outQueued:
		p.queued++
	default:
		p.failed++
	}
}

// runClosed drives clients back-to-back callers for dur, starting at
// sequence index first. every is the output-check stride (1 checks all).
func runClosed(ctx context.Context, dur time.Duration, clients, first, every int, fn opFunc) phaseResult {
	res := phaseResult{start: now()}
	end := res.start.Add(dur)
	var next atomic.Int64
	parts := make([]phaseResult, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(part *phaseResult) {
			defer wg.Done()
			for ctx.Err() == nil {
				t0 := now()
				if !t0.Before(end) {
					return
				}
				k := int(next.Add(1) - 1)
				done, out, n := fn(ctx, first+k, k%every == 0)
				part.samples = append(part.samples, sample{due: t0.Sub(res.start), lat: done.Sub(t0), respBytes: n})
				part.count(out)
			}
		}(&parts[c])
	}
	wg.Wait()
	res.elapsed = since(res.start)
	for _, part := range parts {
		res.add(part)
	}
	return res
}

// openSchedule is the open loop's arrival schedule: slot k is due at
// k/rate after the start, whatever the responses do.
func openSchedule(k, rate int) time.Duration {
	return time.Duration(int64(k) * int64(time.Second) / int64(rate))
}

// runOpen drives an open loop at rate operations per second for dur:
// clients workers take the schedule's slots in order, wait until each is
// due and send it. Latency is timed from the due time, not the send
// time, so a stall charges the requests queued behind it; lag records
// how late the generator itself ran. A slot still unsent one dur past
// the end is abandoned and counted failed.
func runOpen(ctx context.Context, dur time.Duration, clients, rate, first, every int, fn opFunc) phaseResult {
	res := phaseResult{start: now()}
	slots := int(int64(rate) * int64(dur) / int64(time.Second))
	giveUp := res.start.Add(2 * dur)
	var next atomic.Int64
	parts := make([]phaseResult, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(part *phaseResult) {
			defer wg.Done()
			for ctx.Err() == nil {
				k := int(next.Add(1) - 1)
				if k >= slots {
					return
				}
				offset := openSchedule(k, rate)
				due := res.start.Add(offset)
				sleepUntil(due)
				sent := now()
				if sent.After(giveUp) {
					part.failed++
					continue
				}
				done, out, n := fn(ctx, first+k, k%every == 0)
				part.samples = append(part.samples, sample{due: offset, lat: done.Sub(due), lag: sent.Sub(due), respBytes: n})
				part.count(out)
			}
		}(&parts[c])
	}
	wg.Wait()
	res.elapsed = since(res.start)
	for _, part := range parts {
		res.add(part)
	}
	return res
}

// quantile is the nearest-rank q-quantile of an ascending slice.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedDurations(samples []sample, pick func(sample) time.Duration) []time.Duration {
	out := make([]time.Duration, len(samples))
	for i, s := range samples {
		out[i] = pick(s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func latOf(s sample) time.Duration { return s.lat }
func lagOf(s sample) time.Duration { return s.lag }

// windowStats are a phase's per-window readings: the phase is cut into
// consecutive windows of equal width by due time (a trailing partial
// window is dropped), and each window yields its own median latency and
// throughput.
type windowStats struct {
	p50        []float64 // ms
	rate       []float64 // operations per second
	minSamples int       // the emptiest window's sample count
}

func (ws *windowStats) merge(o windowStats) {
	if len(ws.p50) == 0 || o.minSamples < ws.minSamples {
		ws.minSamples = o.minSamples
	}
	ws.p50 = append(ws.p50, o.p50...)
	ws.rate = append(ws.rate, o.rate...)
}

func perWindow(p phaseResult, span, width time.Duration) windowStats {
	n := int(span / width)
	if n < 1 {
		n, width = 1, span
	}
	wins := make([][]sample, n)
	for _, s := range p.samples {
		if w := int(s.due / width); w >= 0 && w < n {
			wins[w] = append(wins[w], s)
		}
	}
	ws := windowStats{minSamples: len(p.samples)}
	for _, w := range wins {
		if len(w) < ws.minSamples {
			ws.minSamples = len(w)
		}
		if len(w) == 0 {
			continue
		}
		lat := sortedDurations(w, latOf)
		ws.p50 = append(ws.p50, ms(quantile(lat, 0.50)))
		ws.rate = append(ws.rate, float64(len(w))/width.Seconds())
	}
	return ws
}

// quietDecile is the decile of per-window values on the better side of
// their median: the first for a latency, the ninth for a rate. The
// reference machine is a 2-vCPU guest whose neighbours slow some windows
// by up to a third and speed none up, so the mean or median of windows
// moves with the neighbours (run-to-run spread 0.16 to 0.2 on capacity
// in a busy hour) while the better decile tracks the code (0.04 to 0.1).
// A stall rarer than one per window is not seen by it; the guarded
// lat_p50_ms, lat_p99_ms and capacity_rps are for those.
func quietDecile(vals []float64, lowerIsBetter bool) float64 {
	if lowerIsBetter {
		return quantileOf(vals, 0.1)
	}
	return quantileOf(vals, 0.9)
}

// quantileOf is the q-quantile of vals, rounding to the nearest rank.
func quantileOf(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	xs := append([]float64(nil), vals...)
	sort.Float64s(xs)
	return xs[int(q*float64(len(xs)-1)+0.5)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

var endpointPath = [...]string{epIntent: "/intent", epIntentions: "/intentions", epSimilar: "/similar", epRelated: "/related"}

// routedOp sends sequence ops through the router, as a front end that
// embeds cluster.Router would.
func (s *stack) routedOp(seq []op) opFunc {
	return func(ctx context.Context, i int, check bool) (time.Time, outcome, int) {
		o := seq[i%len(seq)]
		ks := s.keys.of(o)
		raw := ks.rawK
		if o.ep == epIntent {
			raw = ks.raw
		}
		res, err := s.router.Do(ctx, cluster.Request{Key: ks.key, Path: endpointPath[o.ep], RawQuery: raw})
		done := now()
		switch {
		case err != nil || res.Status >= 400:
			return done, outFailed, len(res.Body)
		case check && !s.checkLookup(o, res.Status, res.Body):
			return done, outFailed, len(res.Body)
		case res.Status == http.StatusAccepted:
			return done, outQueued, len(res.Body)
		}
		return done, outOK, len(res.Body)
	}
}

// batchOp posts batchItems sequence ops per request straight at node 0.
func (s *stack) batchOp(seq []op) opFunc {
	bufs := sync.Pool{New: func() any { return new(bytes.Buffer) }}
	target := s.nodes[0].url + "/batch"
	return func(ctx context.Context, i int, check bool) (time.Time, outcome, int) {
		items := batchSlice(seq, i)
		buf := bufs.Get().(*bytes.Buffer)
		defer bufs.Put(buf)
		buf.Reset()
		s.appendBatchBody(buf, items)
		status, body, err := s.post(ctx, target, buf.Bytes())
		done := now()
		if err != nil || status != http.StatusOK || (check && !s.checkBatch(items, body)) {
			return done, outFailed, len(body)
		}
		return done, outOK, len(body)
	}
}

// batchSlice is the i-th request's items; the sequence wraps.
func batchSlice(seq []op, i int) []op {
	start := (i * batchItems) % (len(seq) - batchItems)
	return seq[start : start+batchItems]
}

func (s *stack) appendBatchBody(buf *bytes.Buffer, items []op) {
	buf.WriteByte('[')
	for j, o := range items {
		if j > 0 {
			buf.WriteByte(',')
		}
		buf.WriteString(s.keys.of(o).frag)
	}
	buf.WriteByte(']')
}

func (s *stack) post(ctx context.Context, target string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// checkLookup compares one routed response with the answer computed
// locally from the oracle snapshot.
func (s *stack) checkLookup(o op, status int, body []byte) bool {
	key := s.keys.of(o).key
	if o.ep == epIntent {
		return (status == http.StatusOK || status == http.StatusAccepted) &&
			bytes.HasSuffix(body, []byte("\n")) && intentBodyOK(key, body[:len(body)-1])
	}
	return status == http.StatusOK && bytes.Equal(body, append(s.expected(o.ep, key), '\n'))
}

// expected is the oracle's answer for a KG endpoint.
func (s *stack) expected(ep endpoint, key string) []byte {
	switch ep {
	case epIntentions:
		return serving.AppendIntentionsJSON(nil, s.oracle, key, 10)
	case epRelated:
		return serving.AppendRelatedJSON(nil, s.oracle, key, 10)
	default:
		return serving.AppendSimilarJSON(nil, key, s.oracleIx.Lookup(key, 10))
	}
}

// intentBodyOK checks an /intent answer on its query: the queued body
// exactly, the feature body by its leading Query field (the rest carries
// a timestamp and model version).
func intentBodyOK(q string, body []byte) bool {
	if bytes.Equal(body, serving.AppendQueuedJSON(nil, q)) {
		return true
	}
	prefix := append(wire.AppendString([]byte(`{"Query":`), q), `,"Intents":`...)
	return bytes.HasPrefix(body, prefix)
}

// checkBatch compares a /batch response item by item.
func (s *stack) checkBatch(items []op, body []byte) bool {
	var got []json.RawMessage
	if err := json.Unmarshal(body, &got); err != nil || len(got) != len(items) {
		return false
	}
	for j, o := range items {
		key := s.keys.of(o).key
		if o.ep == epIntent {
			if !intentBodyOK(key, got[j]) {
				return false
			}
		} else if !bytes.Equal(got[j], s.expected(o.ep, key)) {
			return false
		}
	}
	return true
}
