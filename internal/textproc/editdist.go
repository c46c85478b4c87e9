package textproc

import (
	"slices"
	"unicode/utf8"
)

// EditDistance returns the Levenshtein distance between a and b, computed
// over runes with O(min(|a|,|b|)) memory. It backs the paper's rule that
// drops generations that merely copy the query, product type, or product
// title (edit distance below a threshold).
func EditDistance(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) < len(rb) {
		ra, rb = rb, ra
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(cur[j-1]+1, prev[j]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// NormalizedEditDistance returns EditDistance(a,b) divided by the length
// of the longer string, in [0,1]. Identical strings score 0.
func NormalizedEditDistance(a, b string) float64 {
	la, lb := len([]rune(a)), len([]rune(b))
	n := la
	if lb > n {
		n = lb
	}
	if n == 0 {
		return 0
	}
	return float64(EditDistance(a, b)) / float64(n)
}

// TokenOverlap returns the Jaccard overlap between the stemmed content
// token sets of a and b. Used by the similarity filter tests as an
// embedding-free reference measure.
func TokenOverlap(a, b string) float64 { return StemOverlap(ContentStems(a), ContentStems(b)) }

// StemOverlap is TokenOverlap for a caller that already holds both
// strings' ContentStems, as strings or as one Vocab's stem IDs: the
// distinct stems the two lists share over the distinct stems in either.
// It compares the stems pairwise in place, so it builds no set; the cost
// is quadratic in the list lengths, which for content stems (a knowledge
// text, a behavior context) are a handful.
func StemOverlap[T comparable](a, b []T) float64 {
	var na, nb, shared int
	for i, t := range a {
		if !slices.Contains(a[:i], t) {
			na++
			if slices.Contains(b, t) {
				shared++
			}
		}
	}
	for j, t := range b {
		if !slices.Contains(b[:j], t) {
			nb++
		}
	}
	if na == 0 && nb == 0 {
		return 0
	}
	return float64(shared) / float64(na+nb-shared)
}

// WithinEditRatio reports whether NormalizedEditDistance(a, b) <= r
// without computing the whole table. With n the longer length in runes,
// the largest distance that still passes is the greatest k with
// float64(k)/float64(n) <= r. The distance is at least the difference in
// lengths, so a pair whose lengths differ by more than k fails at once;
// otherwise only cells within k of the diagonal can lie on a path of
// cost <= k, and the rest of the table is never filled.
func WithinEditRatio(a, b string, r float64) bool {
	switch {
	case !(r >= 0): // negative or NaN: no distance passes
		return false
	case r >= 1: // the distance never exceeds the longer length
		return true
	}
	na, nb := utf8.RuneCountInString(a), utf8.RuneCountInString(b)
	if na < nb {
		a, b, na, nb = b, a, nb, na
	}
	if na == 0 {
		return true
	}
	n := float64(na)
	k := int(r * n)
	for float64(k+1)/n <= r {
		k++
	}
	for float64(k)/n > r {
		k--
	}
	if na-nb > k {
		return false
	}
	if isASCII(a) && isASCII(b) { // compare bytes, on the stack when short
		var stack [192]byte
		ab := append(append(stack[:0], a...), b...)
		return withinDistance(ab[:na], ab[na:], k)
	}
	return withinDistance([]rune(a), []rune(b), k)
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// withinDistance reports whether the Levenshtein distance of a and b is
// at most k, for len(a) >= len(b) and 0 <= len(a)-len(b) <= k. Cells
// farther than k from the diagonal hold a value above k and stand in for
// the unfilled part of the table.
func withinDistance[E byte | rune](a, b []E, k int) bool {
	var stack [2 * 96]int
	rows := stack[:]
	if w := len(b) + 1; 2*w > len(rows) {
		rows = make([]int, 2*w)
	}
	prev, cur := rows[:len(b)+1], rows[len(b)+1:2*(len(b)+1)]
	far := k + 1
	for j := range prev {
		prev[j] = min(j, far)
	}
	for i := 1; i <= len(a); i++ {
		lo, hi := max(1, i-k), min(len(b), i+k)
		cur[lo-1] = far
		if lo == 1 {
			cur[0] = min(i, far)
		}
		best := cur[lo-1]
		for j := lo; j <= hi; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			v := min(cur[j-1]+1, prev[j]+1, prev[j-1]+cost, far)
			cur[j] = v
			best = min(best, v)
		}
		if hi < len(b) {
			cur[hi+1] = far
		}
		if best > k {
			return false
		}
		prev, cur = cur, prev
	}
	return prev[len(b)] <= k
}
