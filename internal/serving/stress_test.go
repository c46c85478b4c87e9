package serving

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"
)

// TestShardedCacheConcurrentStress hammers every mutating cache
// operation from many goroutines; run under `go test -race` this is the
// tentpole's concurrency proof for the lock-striped shards.
func TestShardedCacheConcurrentStress(t *testing.T) {
	c := NewAsyncCacheWithConfig(CacheConfig{DailyCap: 128, QueueCap: 256})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				q := fmt.Sprintf("q%d", rng.Intn(200))
				switch rng.Intn(5) {
				case 0, 1:
					c.Lookup(q)
				case 2:
					c.InstallDaily(Feature{Query: q})
				case 3:
					for _, d := range c.DrainQueue(8) {
						c.InstallDaily(Feature{Query: d})
					}
				default:
					c.Stats()
				}
			}
		}(int64(w))
	}
	// Concurrent refresh churn against the lookup/install traffic.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			c.ReplaceYearly([]Feature{{Query: fmt.Sprintf("yearly%d", i)}})
			c.ResetDaily()
		}
	}()
	wg.Wait()
	s := c.Stats()
	if s.Hits+s.Misses == 0 {
		t.Error("no traffic recorded")
	}
	if s.DailySize > 128 {
		t.Errorf("daily size %d exceeds total cap", s.DailySize)
	}
	if s.BatchQueued > 256 {
		t.Errorf("queue depth %d exceeds bound", s.BatchQueued)
	}
}

// TestDeploymentConcurrentWithWorkerAndRefresh runs the full serving
// loop — /intent traffic through the HTTP handler, the background
// batch worker, and daily refreshes — concurrently, as cosmo-serve does
// in production.
func TestDeploymentConcurrentWithWorkerAndRefresh(t *testing.T) {
	d := NewDeploymentContext(DeployConfig{DailyCacheCap: 256, QueueCap: 512}, echoResponder("v1"))
	h := NewHTTPHandler(d)
	ctx, cancel := context.WithCancel(context.Background())
	done := d.StartWorker(ctx, time.Millisecond, 64)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 1000; i++ {
				h.ServeHTTP(httptest.NewRecorder(),
					httptest.NewRequest(http.MethodGet, fmt.Sprintf("/intent?q=q%d", rng.Intn(100)), nil))
			}
		}(int64(w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := d.Refresh(context.Background(), echoResponder(fmt.Sprintf("v%d", i+2)), nil, 16); err != nil {
				t.Errorf("refresh %d: %v", i, err)
			}
			d.Latency("intent").Quantile(0.99)
			d.TopInteractions(5)
		}
	}()
	wg.Wait()
	cancel()
	<-done

	if d.Version() != 11 {
		t.Errorf("version = %d, want 11 after 10 refreshes", d.Version())
	}
	if got := d.Latency("intent").Total; got != 8000 {
		t.Errorf("latency observations = %d, want 8000", got)
	}
	// Drain any stragglers queued after the worker's final pass; the
	// queue must empty, proving nothing leaked or wedged.
	for i := 0; i < 100 && d.RunBatchContext(context.Background(), 64).Succeeded > 0; i++ {
	}
	if got := d.Cache.Stats().BatchQueued; got != 0 {
		t.Errorf("queue depth %d after full drain", got)
	}
}

// TestBatchVersionMatchesResponder: a batch pass takes its responder and
// version from one committed value. Each responder tags its features
// with the version it is committed as, so under concurrent Refresh and
// RunBatchContext every stored feature's Version must equal its tag.
func TestBatchVersionMatchesResponder(t *testing.T) {
	tagged := func(version int) ContextResponder {
		tag := strconv.Itoa(version)
		return ContextResponderFunc(func(_ context.Context, q string) (Feature, error) {
			return Feature{Query: q, Intents: []string{tag}}, nil
		})
	}
	d := NewDeploymentContext(DeployConfig{DailyCacheCap: 64, QueueCap: 256}, tagged(1))
	const refreshes = 50
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := 2; v <= refreshes+1; v++ {
			if err := d.Refresh(context.Background(), tagged(v), nil, 4); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				q := fmt.Sprintf("q%d-%d", w, i%16)
				d.HandleQuery(q)
				d.RunBatchContext(context.Background(), 8)
				if f, ok := storeGet(d, q); ok && (len(f.Intents) != 1 || f.Intents[0] != strconv.Itoa(f.Version)) {
					t.Errorf("feature %q has version %d but model tag %v", q, f.Version, f.Intents)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if d.Version() != refreshes+1 {
		t.Errorf("version = %d, want %d", d.Version(), refreshes+1)
	}
}

// TestStartWorkerDrainsBacklogAndStops: queued misses are processed by
// the worker without manual RunBatch calls, and cancellation performs a
// final drain before the done channel closes.
func TestStartWorkerDrainsBacklogAndStops(t *testing.T) {
	d := NewDeploymentContext(DeployConfig{DailyCacheCap: 128}, echoResponder("v1"))
	for i := 0; i < 50; i++ {
		d.HandleQuery(fmt.Sprintf("cold-%d", i))
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := d.StartWorker(ctx, time.Millisecond, 16)
	deadline := time.After(5 * time.Second)
	for d.Cache.Stats().StoreSize < 50 {
		select {
		case <-deadline:
			t.Fatalf("worker drained only %d/50 before deadline", d.Cache.Stats().StoreSize)
		case <-time.After(time.Millisecond):
		}
	}
	// A query accepted just before shutdown is still processed by the
	// final drain.
	d.HandleQuery("last-call")
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("worker did not stop")
	}
	if _, ok := storeGet(d, "last-call"); !ok {
		t.Error("final drain skipped the last queued query")
	}
}
