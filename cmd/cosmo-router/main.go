// Command cosmo-router fronts N cosmo-serve nodes with the distributed
// serving tier (internal/cluster): consistent-hash routing over the
// query key with virtual nodes, a configurable replication factor,
// hedged reads (a second replica is tried after a latency-derived
// delay; first success wins and cancels the loser), per-node circuit
// breakers fed by every attempt, and active /readyz polling. Nodes that
// are down, draining (cosmo-serve -drain-grace) or breaker-open leave
// replica sets deterministically: each of their keys shifts to its next
// replica on the ring, and recovered nodes rejoin via half-open probes.
//
// Usage:
//
//	cosmo-serve -addr :8081 & cosmo-serve -addr :8082 & cosmo-serve -addr :8083 &
//	cosmo-router -addr :7070 -nodes http://localhost:8081,http://localhost:8082,http://localhost:8083 \
//	             [-replication 2] [-vnodes 128] [-attempt-timeout 2s]
//	             [-hedge-quantile 0.99] [-hedge-min 1ms] [-hedge-max 250ms]
//	             [-breaker-threshold 5] [-breaker-cooldown 2s] [-breaker-probes 1]
//	             [-probe-interval 1s] [-probe-timeout 500ms]
//
// Endpoints: GET /intent?q=..., GET /intentions?id=..., GET /related?id=...,
// GET /similar?q=..., GET /kg, GET /metrics (per-node route / hedge /
// failover / exclusion counters and the hedge-win ratio), GET /healthz,
// and GET /readyz — which answers 503 only when zero nodes are
// eligible.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cosmo/internal/cluster"
	"cosmo/internal/serving"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cosmo-router: ")

	addr := flag.String("addr", ":7070", "HTTP listen address")
	nodeList := flag.String("nodes", "", "comma-separated cosmo-serve base URLs (required), e.g. http://host1:8080,http://host2:8080")
	replication := flag.Int("replication", 2, "replica-set size per key (1 disables hedging)")
	vnodes := flag.Int("vnodes", cluster.DefaultVirtualNodes, "virtual points per node on the consistent-hash ring")
	attemptTimeout := flag.Duration("attempt-timeout", 2*time.Second, "per-node attempt timeout")
	hedgeQuantile := flag.Float64("hedge-quantile", 0.99, "per-node latency quantile the hedge delay derives from")
	hedgeMin := flag.Duration("hedge-min", time.Millisecond, "hedge delay lower clamp")
	hedgeMax := flag.Duration("hedge-max", 250*time.Millisecond, "hedge delay upper clamp (also the cold-start delay)")
	hedgeSamples := flag.Int64("hedge-samples", 32, "successful attempts a node needs before it informs the hedge delay")
	brkThreshold := flag.Int("breaker-threshold", 5, "consecutive failures that trip a node's breaker")
	brkCooldown := flag.Duration("breaker-cooldown", 2*time.Second, "how long a tripped node is excluded before a half-open probe")
	brkProbes := flag.Int("breaker-probes", 1, "probe successes needed for a tripped node to rejoin")
	probeInterval := flag.Duration("probe-interval", time.Second, "active /readyz polling interval")
	probeTimeout := flag.Duration("probe-timeout", 500*time.Millisecond, "per-node /readyz probe timeout")
	flag.Parse()

	client := &http.Client{} // the /readyz probes; queries ride the backends' own keep-alive hop
	specs, backends, err := parseNodes(*nodeList, client)
	if err != nil {
		log.Fatal(err)
	}

	router, err := cluster.New(specs, cluster.Config{
		Replication:     *replication,
		VirtualNodes:    *vnodes,
		AttemptTimeout:  *attemptTimeout,
		HedgeQuantile:   *hedgeQuantile,
		HedgeMin:        *hedgeMin,
		HedgeMax:        *hedgeMax,
		MinHedgeSamples: *hedgeSamples,
		Breaker:         serving.BreakerConfig{Threshold: *brkThreshold, Cooldown: *brkCooldown, Probes: *brkProbes},
		ProbeInterval:   *probeInterval,
		ProbeTimeout:    *probeTimeout,
	})
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// Probe once before serving so /readyz reflects real node state from
	// the first request, then keep polling in the background.
	router.CheckHealth(ctx)
	healthDone := router.StartHealthLoop(ctx)
	log.Printf("routing over %d nodes (replication %d, %d vnodes, %d eligible now)",
		router.NumNodes(), *replication, *vnodes, router.EligibleNodes())

	srv := &http.Server{
		Addr:              *addr,
		Handler:           cluster.NewHTTPHandler(router),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	go func() {
		<-ctx.Done()
		log.Print("shutting down...")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}()

	log.Printf("serving on %s", *addr)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-healthDone
	for _, be := range backends {
		be.Close() // the idle keep-alive connections to the nodes
	}
	log.Print("bye")
}

// parseNodes turns the -nodes list into ring members. Each node is named
// by the base its backend dials (the entry without surrounding space or
// trailing slashes), so two spellings of one URL get one name and
// cluster.New refuses the second instead of placing one process on the
// ring twice.
func parseNodes(list string, client *http.Client) ([]cluster.NodeSpec, []*cluster.HTTPBackend, error) {
	var specs []cluster.NodeSpec
	var backends []*cluster.HTTPBackend
	for _, b := range strings.Split(list, ",") {
		b = strings.TrimRight(strings.TrimSpace(b), "/")
		if b == "" {
			continue
		}
		if !strings.HasPrefix(b, "http://") {
			return nil, nil, fmt.Errorf("-nodes: %q: the router-to-node hop is plain HTTP, want http://host:port", b)
		}
		be := cluster.NewHTTPBackend(b, client)
		backends = append(backends, be)
		specs = append(specs, cluster.NodeSpec{Name: b, Backend: be})
	}
	if len(specs) == 0 {
		return nil, nil, errors.New("-nodes is required: pass a comma-separated list of cosmo-serve base URLs")
	}
	return specs, backends, nil
}
