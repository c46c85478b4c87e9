// Mapping lifetime for memory-mapped snapshots.
//
// A mapped Snapshot's numeric sections alias the mmap'd file bytes, so
// the mapped region must stay live for as long as any goroutine can
// still read through the snapshot — including readers that loaded the
// snapshot pointer from the serving tier's RCU cell *before* a refresh
// swapped in a successor. There is no quiescent-state bookkeeping in
// the read path (that is the whole point of the RCU design: readers
// are a single atomic load), so the release edge cannot be "the server
// swapped it out"; it has to be "no reader can reach it any more".
// That is exactly the garbage collector's liveness judgment, so the
// mapping rides it: each Snapshot holds a strong reference to its
// mapping, and a finalizer unmaps the region only after the collector
// proves the snapshot referencing it is unreachable. A retired snapshot
// therefore keeps serving in-flight readers correctly and the munmap
// happens strictly after the final reader drops its pointer.
//
// Tools that own their snapshot outright (cosmo-bench, cosmo-kg) can
// release deterministically with Close; the finalizer is the backstop
// and the serving-path mechanism, Close the eager path. Whichever runs
// first unmaps; the other is a no-op.
package kg

import (
	"runtime"
	"sync/atomic"
)

// mapping is the handle on one mmap'd snapshot file (or, in the
// portable fallback build, a plain heap buffer standing in for it).
// data is the whole file image; unmap releases it.
type mapping struct {
	data     []byte
	unmap    func([]byte) error
	released atomic.Bool
}

// newMapping wraps a mapped region and arms the finalizer that releases
// it once its snapshot is unreachable. unmap may be nil (fallback build:
// the buffer is ordinary heap memory and the collector frees it without
// help).
func newMapping(data []byte, unmap func([]byte) error) *mapping {
	m := &mapping{data: data, unmap: unmap}
	if unmap != nil {
		runtime.SetFinalizer(m, func(m *mapping) {
			m.release() //cosmo:lint-ignore dropped-error a finalizer has no caller to report munmap failure to
		})
	}
	return m
}

// release unmaps the region exactly once: Close and the finalizer may
// both call it, and only the first call does anything.
func (m *mapping) release() error {
	if !m.released.CompareAndSwap(false, true) {
		return nil
	}
	runtime.SetFinalizer(m, nil)
	data := m.data
	m.data = nil
	if m.unmap == nil {
		return nil
	}
	return m.unmap(data)
}

// Close releases the snapshot's hold on its mapped region, if any.
// After Close the snapshot must not be used: its aliased sections
// point into unmapped memory. Freeze and ReadSnapshot snapshots live on
// the heap and have no mapping; Close is then a no-op. The serving path
// never calls Close — retired snapshots are released by the collector
// once the last RCU reader drops them (see the package comment).
func (s *Snapshot) Close() error {
	if s.mapping == nil {
		return nil
	}
	m := s.mapping
	s.mapping = nil
	return m.release()
}

// Mapped reports whether this snapshot aliases a memory-mapped file
// (true only for MapSnapshot-loaded snapshots on native builds).
func (s *Snapshot) Mapped() bool { return s.mapping != nil && s.mapping.unmap != nil }
