// Package parallel provides the bounded, order-preserving worker pool
// that the offline pipeline stages fan out on. The contract every caller
// relies on:
//
//   - Order preservation: Map(w, items, fn) returns results[i] = fn(i,
//     items[i]) regardless of worker count or scheduling, so a parallel
//     stage produces byte-identical output to its sequential form as
//     long as fn itself is deterministic per index.
//   - Bounded concurrency: at most workers goroutines run fn at a time;
//     items are dispatched in contiguous chunks, about four per worker,
//     to amortize scheduling.
//   - Panic propagation: a panic inside fn is captured (first one wins,
//     by lowest chunk index) and re-raised on the calling goroutine with
//     the worker's stack appended, after all workers have drained.
//
// Stages stay deterministic under this pool by deriving any randomness
// from a per-index seed (see llm.Teacher and DESIGN.md "Determinism
// under parallelism") and by serializing order-sensitive merges (dedup,
// KG admission) over the order-preserved results.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
)

// panicValue records a captured worker panic plus its stack.
type panicValue struct {
	chunk int
	val   any
	stack []byte
}

// Map applies fn to every item across at most workers goroutines and
// returns the results in input order. workers <= 0 means GOMAXPROCS,
// and more workers than items run as many as there are items. fn
// receives the item's index and value; it must not assume anything
// about execution order. A panic in fn propagates to the caller.
func Map[T, R any](workers int, items []T, fn func(i int, item T) R) []R {
	n := len(items)
	out := make([]R, n)
	if n == 0 {
		return out
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	if workers == 1 {
		// Fast path: no goroutines, no channels; identical semantics.
		for i := range items {
			out[i] = fn(i, items[i])
		}
		return out
	}
	// ~4 chunks per worker balances load without excessive handoffs.
	chunkSize := (n + workers*4 - 1) / (workers * 4)
	numChunks := (n + chunkSize - 1) / chunkSize
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		panicked *panicValue
	)
	next := make(chan int)
	record := func(chunk int, val any) {
		buf := make([]byte, 8192)
		buf = buf[:runtime.Stack(buf, false)]
		mu.Lock()
		if panicked == nil || chunk < panicked.chunk {
			panicked = &panicValue{chunk: chunk, val: val, stack: buf}
		}
		mu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for chunk := range next {
				lo := chunk * chunkSize
				hi := lo + chunkSize
				if hi > n {
					hi = n
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							record(chunk, r)
						}
					}()
					for i := lo; i < hi; i++ {
						out[i] = fn(i, items[i])
					}
				}()
			}
		}()
	}
	for chunk := 0; chunk < numChunks; chunk++ {
		next <- chunk
	}
	close(next)
	wg.Wait()
	if panicked != nil {
		panic(fmt.Sprintf("parallel: worker panic on chunk %d: %v\n\nworker stack:\n%s",
			panicked.chunk, panicked.val, panicked.stack))
	}
	return out
}

// ForEach applies fn to every item for its side effects, preserving the
// pool's bounded-concurrency and panic-propagation contract.
func ForEach[T any](workers int, items []T, fn func(i int, item T)) {
	Map(workers, items, func(i int, item T) struct{} {
		fn(i, item)
		return struct{}{}
	})
}
