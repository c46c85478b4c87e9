package cluster

import (
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

// WriteMetrics writes the router's /metrics page (the body of
// cosmo-router's /metrics, and the chaos smoke's artifact dump).
func (r *Router) WriteMetrics(w io.Writer) error {
	var e serving.Exposition
	s := r.Stats()
	e.Int("cosmo_router_nodes", int64(len(s.Nodes)))
	e.Int("cosmo_router_eligible_nodes", int64(r.EligibleNodes()))
	e.Uint("cosmo_router_requests_total", s.Requests)
	e.Uint("cosmo_router_errors_total", s.Errors)
	e.Uint("cosmo_router_hedges_total", s.Hedges)
	e.Uint("cosmo_router_hedge_wins_total", s.HedgeWins)
	e.Float("cosmo_router_hedge_win_ratio", s.HedgeWinRatio())
	e.Uint("cosmo_router_failovers_total", s.Failovers)
	e.Uint("cosmo_router_no_replica_total", s.NoReplica)
	e.Float("cosmo_router_hedge_delay_ms", s.HedgeDelayMs)
	e.Float("cosmo_router_latency_ms", s.P50, "quantile", "0.5")
	e.Float("cosmo_router_latency_ms", s.P99, "quantile", "0.99")
	e.Float("cosmo_router_latency_ms", s.P999, "quantile", "0.999")
	for _, n := range s.Nodes {
		e.Int("cosmo_node_health", int64(n.Health), "node", n.Name)
		e.Int("cosmo_node_breaker_state", int64(n.BreakerState), "node", n.Name)
		e.Uint("cosmo_node_breaker_opens_total", n.BreakerOpens, "node", n.Name)
		e.Uint("cosmo_node_routes_total", n.Primaries, "node", n.Name)
		e.Uint("cosmo_node_hedges_total", n.Hedges, "node", n.Name)
		e.Uint("cosmo_node_hedge_wins_total", n.HedgeWins, "node", n.Name)
		e.Uint("cosmo_node_failovers_total", n.Failovers, "node", n.Name)
		e.Uint("cosmo_node_exclusions_total", n.Exclusions, "node", n.Name)
		e.Uint("cosmo_node_successes_total", n.Successes, "node", n.Name)
		e.Uint("cosmo_node_failures_total", n.Failures, "node", n.Name)
		e.Float("cosmo_node_latency_ms", n.P50, "node", n.Name, "quantile", "0.5")
		e.Float("cosmo_node_latency_ms", n.P99, "node", n.Name, "quantile", "0.99")
		e.Float("cosmo_node_latency_ms", n.P999, "node", n.Name, "quantile", "0.999")
		e.Int("cosmo_node_conns_idle", int64(n.Hop.Idle), "node", n.Name)
		e.Uint("cosmo_node_conn_dials_total", n.Hop.Dials, "node", n.Name)
		e.Uint("cosmo_node_conn_stale_retries_total", n.Hop.StaleRetries, "node", n.Name)
	}
	_, err := e.WriteTo(w)
	return err
}
