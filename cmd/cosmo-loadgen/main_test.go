package main

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"cosmo/internal/cluster"
	"cosmo/internal/serving"
)

// TestReportNode runs the node report against a real handler and checks
// every printed number against the deployment's own counters. A metric
// the report reads but the handler does not emit prints a "missing"
// line, which the exact comparison rejects.
func TestReportNode(t *testing.T) {
	model := serving.ContextResponderFunc(func(ctx context.Context, q string) (serving.Feature, error) {
		if q == "flaky" {
			return serving.Feature{}, errors.New("model down")
		}
		return serving.Feature{Query: q, Intents: []string{"used for " + q}}, nil
	})
	for _, tc := range []struct {
		name      string
		responder serving.ContextResponder
	}{
		{"resilient", serving.NewResilient(model, serving.ResilienceConfig{MaxRetries: -1})},
		{"plain", model}, // no breaker: the report omits it
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := serving.NewDeploymentContext(serving.DeployConfig{DailyCacheCap: 16, CacheShards: 1, QueueCap: 2}, tc.responder)
			d.HandleQuery("camping") // miss
			d.RunBatchContext(context.Background(), 10)
			d.HandleQuery("camping") // hit
			d.HandleQuery("flaky")
			d.RunBatchContext(context.Background(), 10) // fails and is re-queued
			d.HandleQuery("a")
			d.HandleQuery("b") // the queue holds 2: the oldest is dropped
			if err := d.Refresh(context.Background(), tc.responder, nil, 0); err != nil {
				t.Fatal(err)
			}
			d.HandleQuery("camping") // daily layer reset: served stale from the store

			srv := httptest.NewServer(serving.NewHTTPHandler(d))
			defer srv.Close()
			var out strings.Builder
			reportNode(&out, srv.URL)

			st, bt := d.Cache.Stats(), d.BatchTotals()
			if st.Hits == 0 || st.Misses == 0 || st.BatchDropped == 0 || bt.Requeued == 0 || bt.StaleServed == 0 {
				t.Fatalf("fixture left a counter at 0: %+v %+v", st, bt)
			}
			want := fmt.Sprintf("server: hit rate %.1f%%, batch queue depth %d, queue dropped %d\n"+
				"server: requeued %d, requeue-dropped %d, stale served %d",
				st.HitRate()*100, st.BatchQueued, st.BatchDropped, bt.Requeued, bt.RequeueDropped, bt.StaleServed)
			if rs, ok := d.ResilienceStats(); ok {
				want += ", breaker " + rs.BreakerState.String()
			}
			want += "\n"
			if out.String() != want {
				t.Errorf("report:\n%s\nwant:\n%s", out.String(), want)
			}
		})
	}
}

// TestReportCluster does the same for the router report: a router over
// three in-process nodes, one draining, every printed number checked
// against Router.Stats.
func TestReportCluster(t *testing.T) {
	var specs []cluster.NodeSpec
	var deps []*serving.Deployment
	for i := 0; i < 3; i++ {
		d := serving.NewDeploymentContext(serving.DeployConfig{}, serving.ContextResponderFunc(func(_ context.Context, q string) (serving.Feature, error) {
			return serving.Feature{Query: q}, nil
		}))
		d.SetReady(true)
		deps = append(deps, d)
		specs = append(specs, cluster.NodeSpec{Name: fmt.Sprintf("n%d", i), Backend: cluster.NewLocalBackend(d)})
	}
	r, err := cluster.New(specs, cluster.Config{Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	deps[2].BeginDrain()
	r.CheckHealth(context.Background())
	for i := 0; i < 40; i++ {
		q := fmt.Sprintf("q%d", i)
		if _, err := r.Do(context.Background(), cluster.Request{Key: q, Path: "/intent", RawQuery: "q=" + q}); err != nil {
			t.Fatal(err)
		}
	}

	srv := httptest.NewServer(cluster.NewHTTPHandler(r))
	defer srv.Close()
	var out strings.Builder
	reportCluster(&out, srv.URL)

	s := r.Stats()
	if s.Requests == 0 || s.Nodes[2].Exclusions == 0 {
		t.Fatalf("fixture routed nothing or excluded nothing: %+v", s)
	}
	var want strings.Builder
	fmt.Fprintf(&want, "router: %d nodes (%d eligible), %d requests, %d errors, %d failovers, %d no-replica\n",
		len(s.Nodes), r.EligibleNodes(), s.Requests, s.Errors, s.Failovers, s.NoReplica)
	fmt.Fprintf(&want, "router: hedges %d, hedge wins %d (ratio %.2f), hedge delay %.1fms\n",
		s.Hedges, s.HedgeWins, s.HedgeWinRatio(), s.HedgeDelayMs)
	fmt.Fprintf(&want, "router latency: p50=%.1fms p99=%.1fms p999=%.1fms\n", s.P50, s.P99, s.P999)
	for _, n := range s.Nodes {
		fmt.Fprintf(&want, "node %s: %s, breaker %s (opens %d), routes %d, hedges %d (wins %d), failovers %d, exclusions %d, ok %d, fail %d, p50=%.1fms p99=%.1fms p999=%.1fms\n",
			n.Name, n.Health, n.BreakerState, n.BreakerOpens, n.Primaries, n.Hedges, n.HedgeWins,
			n.Failovers, n.Exclusions, n.Successes, n.Failures, n.P50, n.P99, n.P999)
	}
	if out.String() != want.String() {
		t.Errorf("report:\n%s\nwant:\n%s", out.String(), want.String())
	}
}
