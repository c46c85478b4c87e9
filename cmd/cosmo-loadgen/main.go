// Command cosmo-loadgen drives a running cosmo-serve instance with
// Zipf-like query traffic and reports throughput, hit behaviour and
// latency — the client side of the Figure 5 serving evaluation. It
// waits for the server's /readyz before sending traffic, and with
// -fault-rate it aborts a seeded-deterministic fraction of requests
// mid-flight (faults.Sequence), exercising the server's handling of
// disappearing clients. After the run it scrapes the server's /metrics
// for the server-side view (hit rate, queue depth, bounded-queue drops,
// batch requeues and breaker state).
//
// With -batch N every request is a POST /batch carrying N intent
// lookups, exercising the server's pooled batch path; latencies are
// then per round trip while the served/queued counters stay per lookup.
// Around every run the generator also reads cosmo_go_mallocs_total and
// reports the server's heap allocations per request — the observable
// half of the zero-alloc encoding contract.
//
// With -cluster the target is a cosmo-router: after the run the
// generator reads the router's /metrics and reports end-to-end routed
// latency plus per-node routing, hedging, failover and breaker
// statistics.
//
// A metric a report reads but the page lacks is named on a final
// "metrics missing" line rather than printed silently as 0.
//
// Usage:
//
//	cosmo-serve -addr :8080 &
//	cosmo-loadgen -target http://localhost:8080 -requests 5000 -workers 8 [-batch 32] [-fault-rate 0.1 -fault-seed 1]
//	cosmo-loadgen -target http://localhost:7070 -cluster -requests 5000
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cosmo/internal/cluster"
	"cosmo/internal/faults"
	"cosmo/internal/serving"
)

// queryPool is a representative broad-intent vocabulary; cosmo-serve
// answers any query, warming its cache as the load generator runs.
var queryPool = []string{
	"camping", "running", "walking the dog", "winter boots", "espresso",
	"wedding", "hiking", "baby monitor", "gaming headset", "yoga",
	"fishing", "picnic", "tennis", "sewing", "painting", "travel",
	"smart watch", "air mattress", "dog leash", "notebook",
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("cosmo-loadgen: ")

	target := flag.String("target", "http://localhost:8080", "cosmo-serve base URL")
	requests := flag.Int("requests", 2000, "total requests to send")
	workers := flag.Int("workers", 4, "concurrent workers")
	seed := flag.Int64("seed", 1, "traffic seed")
	readyWait := flag.Duration("ready-wait", 30*time.Second, "how long to wait for the server's /readyz")
	faultRate := flag.Float64("fault-rate", 0, "client-side abort rate [0,1] (cancel requests mid-flight)")
	faultSeed := flag.Int64("fault-seed", 1, "seed for the deterministic abort sequence")
	batch := flag.Int("batch", 0, "intent lookups per request: 0 sends GET /intent, N>0 sends POST /batch with N items")
	clusterMode := flag.Bool("cluster", false, "treat the target as a cosmo-router: after the run, report its per-node routing, hedging and latency stats instead of the single-node view")
	flag.Parse()
	if *workers < 1 {
		*workers = 1
	}
	if *requests < 1 {
		*requests = 1
	}
	if *batch < 0 {
		*batch = 0
	}

	if err := waitReady(*target, *readyWait); err != nil {
		log.Fatal(err)
	}

	var mallocsBefore uint64
	var mallocsBeforeErr error
	if !*clusterMode { // the router's /metrics has no malloc counters
		mallocsBefore, mallocsBeforeErr = scrapeMallocs(*target)
	}

	aborts := faults.NewSequence(*faultSeed, *faultRate)
	var served, queued, failed, aborted atomic.Int64
	// Every request gets a latency slot: worker w sends count(w)
	// requests starting at offset(w), so the remainder when requests is
	// not divisible by workers is still sent and no zero-valued tail
	// skews the percentiles.
	latencies := make([]float64, *requests)
	sent := make([]bool, *requests)
	count := func(w int) int {
		n := *requests / *workers
		if w < *requests%*workers {
			n++
		}
		return n
	}
	var wg sync.WaitGroup
	start := time.Now()
	offset := 0
	for w := 0; w < *workers; w++ {
		n := count(w)
		wg.Add(1)
		go func(w, offset, n int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(w)))
			client := &http.Client{Timeout: 5 * time.Second}
			for i := 0; i < n; i++ {
				// Client-side chaos: a seeded fraction of requests is
				// cancelled mid-flight, like a user abandoning a page.
				rctx, rcancel := context.WithCancel(context.Background())
				abort := aborts.Next()
				if abort {
					rcancel()
				}
				var req *http.Request
				var err error
				if *batch > 0 {
					req, err = http.NewRequestWithContext(rctx, http.MethodPost,
						*target+"/batch", bytes.NewReader(batchBody(rng, *batch)))
					if err == nil {
						req.Header.Set("Content-Type", "application/json")
					}
				} else {
					// Zipf-ish skew toward the head of the pool.
					q := queryPool[int(rng.Float64()*rng.Float64()*float64(len(queryPool)))]
					req, err = http.NewRequestWithContext(rctx, http.MethodGet,
						*target+"/intent?q="+url.QueryEscape(q), nil)
				}
				if err != nil {
					rcancel()
					failed.Add(1)
					continue
				}
				t0 := time.Now()
				resp, err := client.Do(req)
				dt := float64(time.Since(t0).Microseconds()) / 1000.0
				rcancel()
				if err != nil {
					if abort {
						aborted.Add(1)
					} else {
						failed.Add(1)
					}
					continue
				}
				if *batch > 0 {
					body, readErr := io.ReadAll(resp.Body)
					resp.Body.Close() //cosmo:lint-ignore dropped-error best-effort close in the load generator; failures surface as request errors
					if readErr != nil || resp.StatusCode != http.StatusOK {
						failed.Add(int64(*batch))
					} else {
						s, q := countBatchItems(body)
						served.Add(s)
						queued.Add(q)
						failed.Add(int64(*batch) - s - q)
					}
				} else {
					//cosmo:lint-ignore dropped-error best-effort body drain so the connection is reused; latency was already recorded
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close() //cosmo:lint-ignore dropped-error best-effort close in the load generator; failures surface as request errors
					switch resp.StatusCode {
					case http.StatusOK:
						served.Add(1)
					case http.StatusAccepted:
						queued.Add(1)
					default:
						failed.Add(1)
					}
				}
				latencies[offset+i] = dt
				sent[offset+i] = true
			}
		}(w, offset, n)
		offset += n
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Drop slots whose request errored before a latency was measured.
	ok := latencies[:0]
	for i, l := range latencies {
		if sent[i] {
			ok = append(ok, l)
		}
	}
	latencies = ok
	sort.Float64s(latencies)
	pct := func(p float64) float64 {
		if len(latencies) == 0 {
			return 0
		}
		i := int(p * float64(len(latencies)))
		if i >= len(latencies) {
			i = len(latencies) - 1
		}
		return latencies[i]
	}
	total := served.Load() + queued.Load() + failed.Load() + aborted.Load()
	if *batch > 0 {
		fmt.Printf("sent %d batch requests x %d lookups in %.1fs (%.0f lookups/s, %d workers)\n",
			*requests, *batch, elapsed.Seconds(), float64(total)/elapsed.Seconds(), *workers)
	} else {
		fmt.Printf("sent %d requests in %.1fs (%.0f rps, %d workers)\n",
			total, elapsed.Seconds(), float64(total)/elapsed.Seconds(), *workers)
	}
	fmt.Printf("served from cache: %d (%.1f%%), queued for batch: %d, failed: %d, aborted: %d\n",
		served.Load(), 100*float64(served.Load())/float64(total), queued.Load(), failed.Load(), aborted.Load())
	fmt.Printf("client latency: p50=%.1fms p99=%.1fms p999=%.1fms\n", pct(0.50), pct(0.99), pct(0.999))

	if *clusterMode {
		reportCluster(os.Stdout, *target)
		return
	}

	// Server-side allocation cost: the delta in cumulative heap mallocs
	// across the run, per logical lookup. Background work (batch worker,
	// refresh ticks) is included, so read this as an upper bound. A
	// failed scrape is reported as n/a with its reason — never as a
	// silent zero.
	if total > 0 {
		mallocsAfter, mallocsAfterErr := scrapeMallocs(*target)
		switch {
		case mallocsBeforeErr != nil:
			fmt.Printf("server: heap allocs per lookup: n/a (pre-run scrape failed: %v)\n", mallocsBeforeErr)
		case mallocsAfterErr != nil:
			fmt.Printf("server: heap allocs per lookup: n/a (post-run scrape failed: %v)\n", mallocsAfterErr)
		default:
			fmt.Printf("server: %.1f heap allocs per lookup (%d mallocs over %d lookups)\n",
				float64(mallocsAfter-mallocsBefore)/float64(total), mallocsAfter-mallocsBefore, total)
		}
	}

	reportNode(os.Stdout, *target)
}

// reportNode prints the server-side view from a node's /metrics: hit
// rate, queue depth, bounded-queue drops, and the fault-tolerance
// counters (requeues, stale serves, and the breaker when the node's
// responder has one).
func reportNode(w io.Writer, target string) {
	m, err := fetchMetrics(target)
	if err != nil {
		fmt.Fprintf(w, "server: counters n/a (post-run scrape failed: %v)\n", err)
		return
	}
	hits, misses := m.get("", "cosmo_cache_hits_total"), m.get("", "cosmo_cache_misses_total")
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = hits / (hits + misses)
	}
	fmt.Fprintf(w, "server: hit rate %.1f%%, batch queue depth %.0f, queue dropped %.0f\n",
		hitRate*100, m.get("", "cosmo_batch_queue_depth"), m.get("", "cosmo_batch_queue_dropped_total"))
	fmt.Fprintf(w, "server: requeued %.0f, requeue-dropped %.0f, stale served %.0f",
		m.get("", "cosmo_batch_requeued_total"), m.get("", "cosmo_batch_requeue_dropped_total"),
		m.get("", "cosmo_stale_served_total"))
	if state, ok := m.lookup("", "cosmo_breaker_state"); ok {
		fmt.Fprintf(w, ", breaker %s", serving.BreakerState(state).String())
	}
	fmt.Fprintln(w)
	m.reportMissing(w, "server")
}

// batchBody builds a POST /batch payload of n intent lookups drawn
// from the query pool with the same Zipf-ish skew as single mode.
func batchBody(rng *rand.Rand, n int) []byte {
	var buf bytes.Buffer
	buf.WriteByte('[')
	for i := 0; i < n; i++ {
		if i > 0 {
			buf.WriteByte(',')
		}
		q := queryPool[int(rng.Float64()*rng.Float64()*float64(len(queryPool)))]
		fmt.Fprintf(&buf, `{"op":"intent","q":%q}`, q)
	}
	buf.WriteByte(']')
	return buf.Bytes()
}

// countBatchItems classifies a /batch response's entries: an entry
// with "status":"queued" was queued for batch processing, any other
// non-error entry was served from the cache tiers.
func countBatchItems(body []byte) (served, queued int64) {
	var items []json.RawMessage
	if err := json.Unmarshal(body, &items); err != nil {
		return 0, 0
	}
	for _, it := range items {
		switch {
		case bytes.Contains(it, []byte(`"status":"queued"`)):
			queued++
		case bytes.HasPrefix(it, []byte(`{"error":`)):
			// counts as failed via the caller's remainder arithmetic
		default:
			served++
		}
	}
	return served, queued
}

// scrapeMallocs reads cosmo_go_mallocs_total from the server's
// /metrics endpoint. Every failure mode — transport, non-200 status,
// read, missing metric — is a distinct error so the caller can report
// why the allocs column is n/a instead of printing a silent zero.
func scrapeMallocs(target string) (uint64, error) {
	m, err := fetchMetrics(target)
	if err != nil {
		return 0, err
	}
	v, ok := m.lookup("", "cosmo_go_mallocs_total")
	if !ok {
		return 0, fmt.Errorf("metrics scrape: cosmo_go_mallocs_total missing from %s/metrics", target)
	}
	return uint64(v), nil
}

// reportCluster scrapes a cosmo-router's /metrics and prints the
// cluster-mode report: router-level counters, hedge statistics, the
// end-to-end routed latency quantiles, and one line per node.
func reportCluster(w io.Writer, target string) {
	m, err := fetchMetrics(target)
	if err != nil {
		fmt.Fprintf(w, "router: counters n/a (post-run scrape failed: %v)\n", err)
		return
	}
	r := func(key string) float64 { return m.get("", key) }
	fmt.Fprintf(w, "router: %.0f nodes (%.0f eligible), %.0f requests, %.0f errors, %.0f failovers, %.0f no-replica\n",
		r("cosmo_router_nodes"), r("cosmo_router_eligible_nodes"),
		r("cosmo_router_requests_total"), r("cosmo_router_errors_total"),
		r("cosmo_router_failovers_total"), r("cosmo_router_no_replica_total"))
	fmt.Fprintf(w, "router: hedges %.0f, hedge wins %.0f (ratio %.2f), hedge delay %.1fms\n",
		r("cosmo_router_hedges_total"), r("cosmo_router_hedge_wins_total"),
		r("cosmo_router_hedge_win_ratio"), r("cosmo_router_hedge_delay_ms"))
	fmt.Fprintf(w, "router latency: p50=%.1fms p99=%.1fms p999=%.1fms\n",
		r("cosmo_router_latency_ms@0.5"), r("cosmo_router_latency_ms@0.99"), r("cosmo_router_latency_ms@0.999"))
	for _, n := range m.nodes() {
		g := func(key string) float64 { return m.get(n, key) }
		fmt.Fprintf(w, "node %s: %s, breaker %s (opens %.0f), routes %.0f, hedges %.0f (wins %.0f), failovers %.0f, exclusions %.0f, ok %.0f, fail %.0f, p50=%.1fms p99=%.1fms p999=%.1fms\n",
			n, cluster.Health(g("cosmo_node_health")).String(), serving.BreakerState(g("cosmo_node_breaker_state")).String(),
			g("cosmo_node_breaker_opens_total"), g("cosmo_node_routes_total"),
			g("cosmo_node_hedges_total"), g("cosmo_node_hedge_wins_total"),
			g("cosmo_node_failovers_total"), g("cosmo_node_exclusions_total"),
			g("cosmo_node_successes_total"), g("cosmo_node_failures_total"),
			g("cosmo_node_latency_ms@0.5"), g("cosmo_node_latency_ms@0.99"), g("cosmo_node_latency_ms@0.999"))
	}
	m.reportMissing(w, "router")
}

// metricSet is one parsed /metrics page. A key is a sample name, or
// name@q for its quantile="q" sample; node selects the node label (""
// for a sample without one).
type metricSet struct {
	samples []serving.Sample
	missing map[string]bool
}

// lookup finds one sample.
func (m *metricSet) lookup(node, key string) (float64, bool) {
	name, q, _ := strings.Cut(key, "@")
	for _, s := range m.samples {
		if s.Name == name && s.Labels["node"] == node && s.Labels["quantile"] == q {
			return s.Value, true
		}
	}
	return 0, false
}

// get returns one sample. A key the page lacks reads as 0 and is
// recorded, so reportMissing can name it: a renamed metric is reported,
// never silently printed as 0.
func (m *metricSet) get(node, key string) float64 {
	v, ok := m.lookup(node, key)
	if !ok {
		m.missing[key] = true
	}
	return v
}

// nodes lists the page's node labels in page order.
func (m *metricSet) nodes() []string {
	var nodes []string
	for _, s := range m.samples {
		if n := s.Labels["node"]; n != "" && !slices.Contains(nodes, n) {
			nodes = append(nodes, n)
		}
	}
	return nodes
}

// reportMissing prints one line naming every key get did not find.
func (m *metricSet) reportMissing(w io.Writer, who string) {
	if len(m.missing) == 0 {
		return
	}
	keys := make([]string, 0, len(m.missing))
	for k := range m.missing {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "%s: metrics missing from /metrics, printed as 0: %s\n", who, strings.Join(keys, ", "))
}

// fetchMetrics fetches target's /metrics and parses it with
// serving.ParseMetrics. Transport, non-200 status, read and parse
// failures are distinct errors.
func fetchMetrics(target string) (*metricSet, error) {
	resp, err := http.Get(target + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("metrics scrape: %w", err)
	}
	defer resp.Body.Close() //cosmo:lint-ignore dropped-error best-effort close after the body was read; failures surface on the read
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics scrape: %s/metrics answered %d", target, resp.StatusCode)
	}
	samples, err := serving.ParseMetrics(resp.Body)
	return &metricSet{samples: samples, missing: map[string]bool{}}, err
}

// waitReady polls the server's /readyz until it reports 200, the
// timeout passes, or the server is clearly absent. cosmo-serve runs its
// whole offline pipeline before listening, so the load generator must
// not start timing requests against a warming server.
func waitReady(target string, wait time.Duration) error {
	deadline := time.Now().Add(wait)
	client := &http.Client{Timeout: 2 * time.Second}
	for {
		resp, err := client.Get(target + "/readyz")
		if err == nil {
			ready := resp.StatusCode == http.StatusOK
			//cosmo:lint-ignore dropped-error best-effort body drain so the probe connection is reused
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close() //cosmo:lint-ignore dropped-error best-effort close on a readiness probe
			if ready {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not ready after %s", target, wait)
		}
		time.Sleep(250 * time.Millisecond)
	}
}
