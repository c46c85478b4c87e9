package mutexhygiene

import "sync"

// Known-bad: non-deferred unlocks on multi-return functions. Mutexes
// copied by value are go vet's (testdata/copylocks/mutexhygiene).

type Registry struct {
	mu    sync.RWMutex
	items map[string]int
}

func (r *Registry) Lookup(k string) (int, bool) {
	r.mu.RLock() // line 14: finding (2 returns, no defer r.mu.RUnlock())
	v, ok := r.items[k]
	if !ok {
		r.mu.RUnlock()
		return 0, false
	}
	r.mu.RUnlock()
	return v, true
}
