package faults

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"cosmo/internal/kg"
	"cosmo/internal/serving"
)

// okResponder is the healthy model backend behind the injector.
func okResponder() serving.ContextResponder {
	return serving.ContextResponderFunc(func(ctx context.Context, q string) (serving.Feature, error) {
		if err := ctx.Err(); err != nil {
			return serving.Feature{}, err
		}
		return serving.Feature{Query: q, Intents: []string{"used for " + q}}, nil
	})
}

// TestChaosServingSurvivesFaults is the acceptance chaos test: a
// deployment whose responder errors (>=20%), hangs, panics and lags is
// hammered concurrently under -race. Every request must be served
// without blocking, and once the faults stop, the accounting ledger
// must balance exactly — no query silently lost.
func TestChaosServingSurvivesFaults(t *testing.T) {
	inj := New(Config{
		Seed:        99,
		ErrorRate:   0.20,
		HangRate:    0.05,
		PanicRate:   0.05,
		LatencyRate: 0.05,
		Latency:     time.Millisecond,
	})
	res := serving.NewResilient(Wrap(okResponder(), inj), serving.ResilienceConfig{
		CallTimeout: 5 * time.Millisecond,
		MaxRetries:  1,
		BackoffBase: 100 * time.Microsecond,
		BackoffMax:  time.Millisecond,
		Seed:        99,
		Breaker:     serving.BreakerConfig{Threshold: 10, Cooldown: 20 * time.Millisecond, Probes: 1},
	})
	d := serving.NewDeploymentContext(serving.DeployConfig{DailyCacheCap: 256, QueueCap: 512}, res)
	d.SetReady(true)

	const (
		workers = 8
		perW    = 500
		keys    = 256
	)
	chaosDone := make(chan struct{})
	go func() {
		defer close(chaosDone)
		var wg sync.WaitGroup
		stop := make(chan struct{})
		// Batch processor churns concurrently with the request traffic,
		// exactly as StartWorker does in production.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					d.RunBatchContext(context.Background(), 32)
				}
			}
		}()
		var tw sync.WaitGroup
		for w := 0; w < workers; w++ {
			tw.Add(1)
			go func(w int) {
				defer tw.Done()
				for i := 0; i < perW; i++ {
					d.HandleQuery(fmt.Sprintf("q%d", (w*perW+i)%keys))
				}
			}(w)
		}
		tw.Wait()
		close(stop)
		wg.Wait()
	}()
	select {
	case <-chaosDone:
	case <-time.After(60 * time.Second):
		t.Fatal("hot path blocked: chaos traffic did not complete")
	}

	// The hot path served every request: each HandleQuery recorded a hit
	// or a miss, regardless of responder health.
	cs := d.Cache.Stats()
	if got := cs.Hits + cs.Misses; got != workers*perW {
		t.Errorf("served %d lookups, want %d", got, workers*perW)
	}

	// Top up until every fault kind has fired. How many responder calls
	// the traffic made depends on the schedule (an open breaker cuts
	// them), but each roll is a pure function of (seed, call index), so
	// the seed fixes how many calls the top-up takes.
	deadline := time.After(30 * time.Second)
	for s := inj.Stats(); s.Panics == 0 || s.Hangs == 0 || s.Errors == 0; s = inj.Stats() {
		select {
		case <-deadline:
			t.Fatalf("fault kinds still missing after top-up: %+v", s)
		default:
			_, _ = res.RespondContext(context.Background(), "top-up")
		}
	}

	// Quiesce: stop injecting and drain until the queue empties (the
	// breaker may need a cooldown to re-close along the way).
	inj.SetEnabled(false)
	deadline = time.After(30 * time.Second)
	for d.Cache.Stats().BatchQueued > 0 {
		select {
		case <-deadline:
			t.Fatalf("queue never drained after faults stopped: %d left", d.Cache.Stats().BatchQueued)
		default:
			d.RunBatchContext(context.Background(), 64)
		}
	}
	if got := res.ResilienceStats().BreakerState; got != serving.BreakerClosed {
		t.Errorf("breaker = %v after recovery, want closed", got)
	}

	// Conservation ledger at quiescence. Enqueue side: every ring push
	// (fresh miss or requeue) was drained, or dropped by the overflow
	// policy, or is still queued (zero here). Serving side: every
	// drained query succeeded or failed, and every failure was requeued
	// or dropped with a metric.
	cs = d.Cache.Stats()
	bt := d.BatchTotals()
	drained := bt.Succeeded + bt.Failed
	pushes := uint64(cs.BatchEnqueued + cs.BatchRequeued)
	if pushes != drained+uint64(cs.BatchDropped)+uint64(cs.BatchQueued) {
		t.Errorf("ledger broken: pushes=%d drained=%d dropped=%d queued=%d",
			pushes, drained, cs.BatchDropped, cs.BatchQueued)
	}
	if bt.Failed != bt.Requeued+bt.RequeueDropped {
		t.Errorf("failure ledger broken: failed=%d requeued=%d requeue-dropped=%d",
			bt.Failed, bt.Requeued, bt.RequeueDropped)
	}
	if uint64(cs.BatchRequeued) != bt.Requeued {
		t.Errorf("requeue counters disagree: cache=%d deployment=%d", cs.BatchRequeued, bt.Requeued)
	}
	if bt.Succeeded == 0 {
		t.Error("no query ever succeeded under 35%% total fault rate with retries")
	}
	// Injected panics were recovered, not fatal (this test is running).
	if s := inj.Stats(); s.Panics == 0 || s.Hangs == 0 || s.Errors == 0 {
		t.Errorf("chaos run did not exercise all fault kinds: %+v", s)
	}
}

// TestChaosBreakerOpensAndRecloses drives the full breaker cycle with a
// deterministic outage episode: closed under healthy traffic, open
// after threshold consecutive failures (rejecting fast), half-open
// after the cooldown, closed again once probes succeed.
func TestChaosBreakerOpensAndRecloses(t *testing.T) {
	clock := serving.NewFakeClock(time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC))
	inj := New(Config{Seed: 5, ErrorRate: 1})
	inj.SetEnabled(false) // healthy to start
	res := serving.NewResilient(Wrap(okResponder(), inj), serving.ResilienceConfig{
		CallTimeout: 50 * time.Millisecond,
		MaxRetries:  -1,
		Breaker:     serving.BreakerConfig{Threshold: 3, Cooldown: time.Second, Probes: 2, Clock: clock},
		Seed:        5,
	})
	call := func(q string) error {
		_, err := res.RespondContext(context.Background(), q)
		return err
	}

	for i := 0; i < 5; i++ {
		if err := call("healthy"); err != nil {
			t.Fatalf("healthy call %d: %v", i, err)
		}
	}
	if got := res.ResilienceStats().BreakerState; got != serving.BreakerClosed {
		t.Fatalf("state = %v under healthy traffic", got)
	}

	// Outage: threshold consecutive failures trip the breaker.
	inj.SetEnabled(true)
	for i := 0; i < 3; i++ {
		if err := call("outage"); !errors.Is(err, ErrInjected) {
			t.Fatalf("outage call %d: %v", i, err)
		}
	}
	if got := res.ResilienceStats().BreakerState; got != serving.BreakerOpen {
		t.Fatalf("state = %v after threshold failures, want open", got)
	}
	if err := call("rejected"); !errors.Is(err, serving.ErrBreakerOpen) {
		t.Fatalf("open breaker returned %v, want fail-fast rejection", err)
	}
	if got := inj.Stats().Errors; got != 3 {
		t.Fatalf("inner responder saw %d calls while open, want 3 (fail-fast)", got)
	}

	// Cooldown elapses; the backend heals; the first probe is admitted.
	clock.Advance(2 * time.Second)
	inj.SetEnabled(false)
	if err := call("probe1"); err != nil {
		t.Fatalf("probe 1: %v", err)
	}
	if got := res.ResilienceStats().BreakerState; got != serving.BreakerHalfOpen {
		t.Fatalf("state = %v after first probe, want half-open (2 probes required)", got)
	}
	if err := call("probe2"); err != nil {
		t.Fatalf("probe 2: %v", err)
	}
	if got := res.ResilienceStats().BreakerState; got != serving.BreakerClosed {
		t.Fatalf("state = %v after probe quorum, want closed", got)
	}
	rs := res.ResilienceStats()
	if rs.BreakerOpens != 1 || rs.BreakerRejects != 1 {
		t.Errorf("opens=%d rejects=%d, want 1/1", rs.BreakerOpens, rs.BreakerRejects)
	}
}

// TestChaosRefreshAtomicUnderFaults: a Refresh driven through a
// fault-injecting responder fails without installing anything — the
// previous model version, yearly layer and KG snapshot keep serving —
// and the same refresh succeeds once the faults stop.
func TestChaosRefreshAtomicUnderFaults(t *testing.T) {
	d := serving.NewDeploymentContext(serving.DeployConfig{DailyCacheCap: 64},
		serving.ContextResponderFunc(func(_ context.Context, q string) (serving.Feature, error) {
			return serving.Feature{Query: q, Intents: []string{"v1"}}, nil
		}))
	world := kg.New()
	world.AddNode(kg.Node{ID: "p1", Label: "tent", Type: kg.NodeProduct})
	snap := world.Freeze()
	d.Install(&serving.Generation{Snap: snap})
	for i := 0; i < 4; i++ {
		for j := 0; j <= 4-i; j++ {
			d.HandleQuery(fmt.Sprintf("hot-%d", i))
		}
	}
	if err := d.Refresh(context.Background(), serving.ContextResponderFunc(func(_ context.Context, q string) (serving.Feature, error) {
		return serving.Feature{Query: q, Intents: []string{"v2"}}, nil
	}), nil, 4); err != nil {
		t.Fatalf("baseline refresh: %v", err)
	}

	inj := New(Config{Seed: 11, ErrorRate: 1})
	faulty := serving.NewResilient(Wrap(okResponder(), inj), serving.ResilienceConfig{
		CallTimeout: 10 * time.Millisecond,
		MaxRetries:  1,
		BackoffBase: 100 * time.Microsecond,
		Seed:        11,
	})
	err := d.Refresh(context.Background(), faulty, nil, 4)
	if err == nil {
		t.Fatal("refresh through a 100% faulty responder succeeded")
	}
	if got := d.Version(); got != 2 {
		t.Errorf("version = %d after failed refresh, want 2", got)
	}
	if d.Generation().Snap != snap {
		t.Error("failed refresh swapped the KG snapshot")
	}
	for i := 0; i < 4; i++ {
		f, ok := d.Cache.Lookup(fmt.Sprintf("hot-%d", i))
		if !ok || f.Version != 2 || len(f.Intents) != 1 || f.Intents[0] != "v2" {
			t.Errorf("yearly entry hot-%d corrupted by failed refresh: %+v ok=%v", i, f, ok)
		}
	}
	if got := d.BatchTotals().RefreshFails; got != 1 {
		t.Errorf("refresh failure metric = %d, want 1", got)
	}

	// Faults stop; the identical refresh commits.
	inj.SetEnabled(false)
	if err := d.Refresh(context.Background(), faulty, nil, 4); err != nil {
		t.Fatalf("healed refresh: %v", err)
	}
	if got := d.Version(); got != 3 {
		t.Errorf("version = %d after healed refresh, want 3", got)
	}
}
