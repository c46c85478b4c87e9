package atomichygiene

import "sync/atomic"

// Known-bad for go vet -copylocks: atomic types copied by value. The
// old atomic-hygiene want-list named lines 12, 16, 21 and 27.

type counter struct {
	hits atomic.Int64
}

func byValueParam(c counter) int64 { // line 12: finding (param)
	return c.hits.Load()
}

func (c counter) byValueRecv() int64 { // line 16: finding (receiver)
	return c.hits.Load()
}

func copyAssign(c *counter) int64 {
	snapshot := *c // line 21: finding (dereference copy)
	return snapshot.hits.Load()
}

func rangeCopy(cs []counter) int64 {
	var n int64
	for _, c := range cs { // line 27: finding (range copies elements)
		n += c.hits.Load()
	}
	return n
}
