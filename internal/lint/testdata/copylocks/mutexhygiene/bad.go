package mutexhygiene

import "sync"

// Known-bad for go vet -copylocks: mutexes passed by value. The
// old mutex-hygiene want-list named lines 13, 17 and 25.

type Counter struct {
	mu sync.Mutex
	n  int
}

func (c Counter) Get() int { // line 13: finding (receiver by value)
	return c.n
}

func readBoth(a Counter, b *Counter) int { // line 17: finding (param a by value)
	return a.n + b.n
}

type wrapped struct {
	inner Counter // embeds the mutex transitively
}

func consume(w wrapped) int { // line 25: finding (transitive mutex by value)
	return w.inner.n
}
