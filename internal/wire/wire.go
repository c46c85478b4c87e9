// Package wire implements the pooled, hand-rolled response encoding
// that keeps the serving tier's wire path as fast as the frozen
// snapshot behind it. The KG read path has been zero-alloc since the
// snapshot freeze (PR 4), but every HTTP response still rented an
// encoder, reflected over struct fields and built intermediate maps in
// encoding/json — at high RPS the wire, not the graph, was the
// allocation hot spot.
//
// The package provides append-style primitives in the strconv.Append*
// idiom: each takes a destination []byte and returns it extended, so a
// whole response is built into one pooled buffer with zero heap
// allocations at steady state. The JSON emitted is byte-identical to
// what encoding/json produces for the same value (same string escaping
// including HTML escaping, same float format, same map-key ordering at
// the call sites) — golden tests in wire_test.go hold every primitive
// to the stdlib's output.
//
// Buffers come from a pool with a bounded recycle capacity: Put drops
// buffers whose capacity grew past MaxRetainedBuffer so one pathological
// response cannot pin memory for the lifetime of the pool.
package wire

import (
	"math"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"
)

// MaxRetainedBuffer caps the capacity of buffers returned to the pool.
// A buffer grown past this by one oversized response is dropped for the
// GC instead of pinning its backing array forever.
const MaxRetainedBuffer = 1 << 20

// Buffer is a pooled byte buffer for response encoding. Use Get to
// obtain one, append into B (re-armed to length zero), and Put it back
// when the bytes have been written out.
type Buffer struct {
	B []byte
}

var bufPool = sync.Pool{
	New: func() any { return &Buffer{B: make([]byte, 0, 1024)} },
}

// Get returns a pooled buffer with length reset to zero.
func Get() *Buffer {
	b := bufPool.Get().(*Buffer)
	b.B = b.B[:0]
	return b
}

// Put recycles the buffer unless it grew past MaxRetainedBuffer.
func Put(b *Buffer) {
	if cap(b.B) > MaxRetainedBuffer {
		return
	}
	bufPool.Put(b)
}

const hexDigits = "0123456789abcdef"

// htmlSafeSet holds the ASCII bytes that encoding/json emits verbatim
// inside a string when HTML escaping is on (the Encoder default): all
// printable ASCII except ", \, <, > and &.
var htmlSafeSet = [utf8.RuneSelf]bool{}

func init() {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		htmlSafeSet[c] = true
	}
	for _, c := range []byte{'"', '\\', '<', '>', '&'} {
		htmlSafeSet[c] = false
	}
}

// AppendString appends src as a JSON string, byte-identical to
// encoding/json with its default HTML escaping: quotes, backslashes and
// control characters are escaped (\b \f \n \r \t get their short
// forms, the rest \u00XX), <, > and & become \u003c/\u003e/\u0026,
// invalid UTF-8 bytes become \ufffd, and U+2028/U+2029 are escaped for
// JSONP safety. src is a string or a byte slice (the batch request
// parser hands ids through without materializing strings); both give
// the same bytes.
//
//cosmo:alloc-free
func AppendString[T string | []byte](dst []byte, src T) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(src); {
		if b := src[i]; b < utf8.RuneSelf {
			if htmlSafeSet[b] {
				i++
				continue
			}
			dst = append(dst, src[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				// Bytes < 0x20 without a short escape, plus <, > and &.
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		// Decode at most UTFMax bytes out of a stack copy, which reads
		// the same for either source type.
		var r [utf8.UTFMax]byte
		c, size := utf8.DecodeRune(r[:copy(r[:], src[i:])])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, src[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		// U+2028 and U+2029 are valid JSON but break JSONP; the stdlib
		// escapes them unconditionally, so the wire encoder does too.
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, src[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, src[start:]...)
	return append(dst, '"')
}

// AppendInt appends the base-10 representation of v.
//
//cosmo:alloc-free
func AppendInt(dst []byte, v int64) []byte {
	return strconv.AppendInt(dst, v, 10)
}

// AppendBool appends "true" or "false".
//
//cosmo:alloc-free
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 't', 'r', 'u', 'e')
	}
	return append(dst, 'f', 'a', 'l', 's', 'e')
}

// AppendFloat appends v in encoding/json's float64 format: shortest
// round-trip representation, 'f' form except for magnitudes below 1e-6
// or at/above 1e21 which use 'e' form with a cleaned exponent ("2e-9",
// not "2e-09"). NaN and infinities — which encoding/json rejects with
// an error after the response status is already committed — encode as
// null instead of corrupting the stream.
//
//cosmo:alloc-free
func AppendFloat(dst []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return append(dst, 'n', 'u', 'l', 'l')
	}
	abs := math.Abs(v)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, v, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9, as encoding/json does.
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// AppendTime appends t as a JSON string in RFC 3339 format with
// nanoseconds, matching time.Time's MarshalJSON for in-range years.
//
//cosmo:alloc-free
func AppendTime(dst []byte, t time.Time) []byte {
	dst = append(dst, '"')
	dst = t.AppendFormat(dst, time.RFC3339Nano)
	return append(dst, '"')
}
