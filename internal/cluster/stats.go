package cluster

import (
	"fmt"
	"io"

	"cosmo/internal/serving"
)

// NodeStats is one node's routing counters and latency view.
type NodeStats struct {
	Name         string
	Health       Health
	BreakerState serving.BreakerState
	BreakerOpens uint64
	Primaries    uint64
	Hedges       uint64
	HedgeWins    uint64
	Failovers    uint64
	Exclusions   uint64
	Successes    uint64
	Failures     uint64
	P50, P99     float64 // successful-attempt latency (ms)
	P999         float64
	// Hop is the backend's connection use; zero for a backend that
	// holds no connections (LocalBackend) or hides them behind a wrapper.
	Hop HopStats
}

// Stats is a point-in-time snapshot of the router's counters.
type Stats struct {
	Requests     uint64
	Errors       uint64
	Hedges       uint64
	HedgeWins    uint64
	Failovers    uint64
	NoReplica    uint64
	HedgeDelayMs float64
	P50, P99     float64 // end-to-end routed latency (ms)
	P999         float64
	Nodes        []NodeStats
}

// HedgeWinRatio is the fraction of hedges that beat their primary.
func (s Stats) HedgeWinRatio() float64 {
	if s.Hedges == 0 {
		return 0
	}
	return float64(s.HedgeWins) / float64(s.Hedges)
}

// Stats snapshots the router and every node.
func (r *Router) Stats() Stats {
	e2e := r.e2e.Snapshot()
	s := Stats{
		Requests:     r.requests.Load(),
		Errors:       r.errors.Load(),
		Hedges:       r.hedges.Load(),
		HedgeWins:    r.hedgeWins.Load(),
		Failovers:    r.failovers.Load(),
		NoReplica:    r.noReplica.Load(),
		HedgeDelayMs: float64(r.hedgeDelay()) / 1e6,
		P50:          e2e.Quantile(0.50),
		P99:          e2e.Quantile(0.99),
		P999:         e2e.Quantile(0.999),
		Nodes:        make([]NodeStats, 0, len(r.nodes)),
	}
	for _, nd := range r.nodes {
		h := nd.hist.Snapshot()
		var hop HopStats
		if hb, ok := nd.backend.(interface{ HopStats() HopStats }); ok {
			hop = hb.HopStats()
		}
		state, opens := nd.brk.State()
		s.Nodes = append(s.Nodes, NodeStats{
			Name:         nd.name,
			Health:       Health(nd.health.Load()),
			BreakerState: state,
			BreakerOpens: opens,
			Primaries:    nd.primaries.Load(),
			Hedges:       nd.hedges.Load(),
			HedgeWins:    nd.hedgeWins.Load(),
			Failovers:    nd.failovers.Load(),
			Exclusions:   nd.exclusions.Load(),
			Successes:    nd.successes.Load(),
			Failures:     nd.failures.Load(),
			P50:          h.Quantile(0.50),
			P99:          h.Quantile(0.99),
			P999:         h.Quantile(0.999),
			Hop:          hop,
		})
	}
	return s
}

// WriteMetrics renders the router's Prometheus-style plaintext metrics
// (the body of cosmo-router's /metrics, and the chaos smoke's artifact
// dump).
func (r *Router) WriteMetrics(w io.Writer) {
	s := r.Stats()
	fmt.Fprintf(w, "cosmo_router_nodes %d\n", len(s.Nodes))
	fmt.Fprintf(w, "cosmo_router_eligible_nodes %d\n", r.EligibleNodes())
	fmt.Fprintf(w, "cosmo_router_requests_total %d\n", s.Requests)
	fmt.Fprintf(w, "cosmo_router_errors_total %d\n", s.Errors)
	fmt.Fprintf(w, "cosmo_router_hedges_total %d\n", s.Hedges)
	fmt.Fprintf(w, "cosmo_router_hedge_wins_total %d\n", s.HedgeWins)
	fmt.Fprintf(w, "cosmo_router_hedge_win_ratio %g\n", s.HedgeWinRatio())
	fmt.Fprintf(w, "cosmo_router_failovers_total %d\n", s.Failovers)
	fmt.Fprintf(w, "cosmo_router_no_replica_total %d\n", s.NoReplica)
	fmt.Fprintf(w, "cosmo_router_hedge_delay_ms %g\n", s.HedgeDelayMs)
	fmt.Fprintf(w, "cosmo_router_latency_ms{quantile=\"0.5\"} %g\n", s.P50)
	fmt.Fprintf(w, "cosmo_router_latency_ms{quantile=\"0.99\"} %g\n", s.P99)
	fmt.Fprintf(w, "cosmo_router_latency_ms{quantile=\"0.999\"} %g\n", s.P999)
	for _, n := range s.Nodes {
		fmt.Fprintf(w, "cosmo_node_health{node=%q} %d\n", n.Name, n.Health)
		fmt.Fprintf(w, "cosmo_node_breaker_state{node=%q} %d\n", n.Name, n.BreakerState)
		fmt.Fprintf(w, "cosmo_node_breaker_opens_total{node=%q} %d\n", n.Name, n.BreakerOpens)
		fmt.Fprintf(w, "cosmo_node_routes_total{node=%q} %d\n", n.Name, n.Primaries)
		fmt.Fprintf(w, "cosmo_node_hedges_total{node=%q} %d\n", n.Name, n.Hedges)
		fmt.Fprintf(w, "cosmo_node_hedge_wins_total{node=%q} %d\n", n.Name, n.HedgeWins)
		fmt.Fprintf(w, "cosmo_node_failovers_total{node=%q} %d\n", n.Name, n.Failovers)
		fmt.Fprintf(w, "cosmo_node_exclusions_total{node=%q} %d\n", n.Name, n.Exclusions)
		fmt.Fprintf(w, "cosmo_node_successes_total{node=%q} %d\n", n.Name, n.Successes)
		fmt.Fprintf(w, "cosmo_node_failures_total{node=%q} %d\n", n.Name, n.Failures)
		fmt.Fprintf(w, "cosmo_node_latency_ms{node=%q,quantile=\"0.5\"} %g\n", n.Name, n.P50)
		fmt.Fprintf(w, "cosmo_node_latency_ms{node=%q,quantile=\"0.99\"} %g\n", n.Name, n.P99)
		fmt.Fprintf(w, "cosmo_node_latency_ms{node=%q,quantile=\"0.999\"} %g\n", n.Name, n.P999)
		fmt.Fprintf(w, "cosmo_node_conns_idle{node=%q} %d\n", n.Name, n.Hop.Idle)
		fmt.Fprintf(w, "cosmo_node_conn_dials_total{node=%q} %d\n", n.Name, n.Hop.Dials)
		fmt.Fprintf(w, "cosmo_node_conn_stale_retries_total{node=%q} %d\n", n.Name, n.Hop.StaleRetries)
	}
}
