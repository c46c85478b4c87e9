package allocfree

import "unsafe"

// Known-good: annotated functions whose only allocations are sized and
// deliberate, plus an unannotated function the check leaves alone.

type point struct{ x, y float64 }

//cosmo:alloc-free
func disciplined(xs []float64) []float64 {
	out := make([]float64, len(xs)) // sized make: a deliberate result buffer
	for i, v := range xs {
		out[i] = v * 2
	}
	return out
}

//cosmo:alloc-free
func pooled(scratch []int, n int) []int {
	buf := scratch[:0] // [:0] reslice re-arms pooled capacity
	for i := 0; i < n; i++ {
		buf = append(buf, i)
	}
	return buf
}

//cosmo:alloc-free
func capped(n int) []int {
	buf := make([]int, 0, n) // 3-arg make states the budget
	for i := 0; i < n; i++ {
		buf = append(buf, i)
	}
	return buf
}

//cosmo:alloc-free
func structsAndStatics(xs []point) (point, func() int) {
	f := func() int { return 42 } // captures nothing: a static func value
	p := point{x: 1, y: 2}        // struct literal: a value, not a heap box
	if len(xs) > 0 {
		p = xs[0]
	}
	return p, f
}

// appendStyle appends into a caller-provided destination and returns
// it — the strconv.Append* idiom. The slice parameter is the cap
// evidence: the capacity budget lives with the caller.
//
//cosmo:alloc-free
func appendStyle(dst []byte, v byte) []byte {
	dst = append(dst, '"', v)
	return append(dst, '"')
}

// aliased builds a zero-copy view over mapped memory; the explicit
// length in unsafe.Slice is the stated capacity budget, so append
// with the view as the destination stays within the evidence the
// author gave.
//
//cosmo:alloc-free
func aliased(p *int32, n int) int32 {
	view := unsafe.Slice(p, n) // explicit bound: cap evidence
	view = append(view, 0)
	var sum int32
	for _, v := range view {
		sum += v
	}
	return sum
}

func unannotated(s string) string {
	return s + "!" // not annotated: the check does not apply
}

// keyLookup converts a type-parameter key only where gc does not copy:
// as a map read's index and as a comparison operand.
//
//cosmo:alloc-free
func keyLookup[K key](m map[string]int, id string, q K) bool {
	v, ok := m[string(q)]
	return ok && v == m[(string(q))] && (id < string(q) || string(q) == id)
}

//cosmo:alloc-free
func stringOnly[S ~string](q S) string { return string(q) } // no []byte in the type set

// widen converts to a type parameter whose type set holds no interface:
// the result is a value of the type argument, so nothing is boxed.
//
//cosmo:alloc-free
func widen[N interface{ ~int | ~int64 }](x int) N { return N(x) }
