package kg

// scored is one ranked candidate: its score and its position — an index
// position in /similar, a node symbol in /related. Both positions follow
// node-ID order (index positions hold ascending symbols, and symbols are
// assigned in ascending ID order), so the position stands in for the ID
// on score ties.
type scored struct {
	score float64
	p     int
}

// after reports whether a ranks after b: lower score, or an equal score
// and a later position. Positions are distinct, so the order is total.
func (a scored) after(b scored) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	return a.p > b.p
}

// topK holds the best candidates seen so far, in the order (score desc,
// position asc), with the one that ranks last at the root, so a newcomer
// is compared against one entry.
type topK []scored

// rejects reports, with one compare, that a full heap turns away a
// candidate scoring below its root. A score tie is left to offer.
func (h topK) rejects(k int, score float64) bool { return len(h) == k && score < h[0].score }

// offer adds c if fewer than k are kept or c ranks before the root.
func (h topK) offer(k int, c scored) topK {
	if len(h) < k {
		h = append(h, c)
		for i := len(h) - 1; i > 0; {
			up := (i - 1) / 2
			if !h[i].after(h[up]) {
				break
			}
			h[i], h[up] = h[up], h[i]
			i = up
		}
		return h
	}
	if h[0].after(c) {
		h[0] = c
		h.down(0)
	}
	return h
}

// pop removes and returns the candidate that ranks last.
func (h topK) pop() (topK, scored) {
	last := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	h.down(0)
	return h, last
}

// down sifts h[i] toward the leaves until it ranks after neither child.
func (h topK) down(i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		c := l
		if r := l + 1; r < len(h) && h[r].after(h[l]) {
			c = r
		}
		if !h[c].after(h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
