package atomichygiene

import "sync/atomic"

// Known-bad: plain access to a word that sync/atomic functions own
// elsewhere. Atomic types copied by value are go vet's
// (testdata/copylocks/atomichygiene).

type mixed struct {
	n int64
}

func (m *mixed) inc() {
	atomic.AddInt64(&m.n, 1)
}

func (m *mixed) badRead() int64 {
	return m.n // line 18: finding (plain read of an atomic word)
}
