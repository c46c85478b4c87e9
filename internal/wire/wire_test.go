package wire

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// marshal is the stdlib oracle with the json.Encoder defaults the
// serving handlers used before the hand-rolled encoders (HTML escaping
// on). Encode's trailing newline is stripped; the handler layer adds it
// back explicitly.
func marshal(t *testing.T, v any) string {
	t.Helper()
	var sb strings.Builder
	enc := json.NewEncoder(&sb)
	if err := enc.Encode(v); err != nil {
		t.Fatalf("stdlib encode %#v: %v", v, err)
	}
	return strings.TrimSuffix(sb.String(), "\n")
}

// TestAppendStringGolden holds AppendString byte-identical to
// encoding/json across the escaping edge cases: quotes, backslashes,
// every control byte, HTML characters, multi-byte UTF-8, invalid
// UTF-8, and the JSONP line separators.
func TestAppendStringGolden(t *testing.T) {
	cases := []string{
		"",
		"plain ascii",
		`quotes " and \ backslash`,
		"tabs\tnewlines\nreturns\rbackspace\bformfeed\f",
		"\x00\x01\x02\x1e\x1f", // control bytes without short escapes
		"<script>alert('x') & co</script>",
		"héllo wörld — emoji 🏕️ tent",
		"日本語のテキスト",
		"invalid \xff\xfe utf8 \xc3\x28 tail \xe2\x82",
		"line sep \u2028 and para sep \u2029 done",
		"mixed < \xffé\t>&",
		strings.Repeat("a", 100) + "\"" + strings.Repeat("b", 100),
	}
	// Every 1-byte string, to sweep the full ASCII table and each
	// possible lone byte.
	for b := 0; b < 256; b++ {
		cases = append(cases, string([]byte{byte(b)}))
	}
	for _, s := range cases {
		want := marshal(t, s)
		if got := string(AppendString(nil, s)); got != want {
			t.Errorf("AppendString(%q) = %s, want %s", s, got, want)
		}
		if got := string(AppendString(nil, []byte(s))); got != want {
			t.Errorf("AppendString([]byte(%q)) = %s, want %s", s, got, want)
		}
	}
}

// TestAppendFloatGolden pins the float format to encoding/json's: 'f'
// form in the middle range, cleaned 'e' form outside it.
func TestAppendFloatGolden(t *testing.T) {
	cases := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, -0.25, 3.1400000000000001,
		1e-6, 9.999999e-7, 1e-7, 1e-9, 2.5e-9, 1e21, 1e20,
		9.99999999e20, 1.0000001e21, 1e300, 5e-324, math.MaxFloat64,
		-1e21, -1e-9, 0.1, 2.0 / 3.0, 1234567890.123456789,
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		cases = append(cases, (rng.Float64()-0.5)*math.Pow(10, float64(rng.Intn(50)-25)))
	}
	for _, f := range cases {
		want := marshal(t, f)
		if got := string(AppendFloat(nil, f)); got != want {
			t.Errorf("AppendFloat(%v) = %s, want %s", f, got, want)
		}
	}
	// NaN and infinities are unencodable by the stdlib (it errors after
	// headers are gone); the wire encoder degrades to null.
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got := string(AppendFloat(nil, f)); got != "null" {
			t.Errorf("AppendFloat(%v) = %s, want null", f, got)
		}
	}
}

// TestAppendScalarsGolden covers ints, bools and times.
func TestAppendScalarsGolden(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 42, -9007199254740993, math.MaxInt64, math.MinInt64} {
		if got, want := string(AppendInt(nil, v)), marshal(t, v); got != want {
			t.Errorf("AppendInt(%d) = %s, want %s", v, got, want)
		}
	}
	for _, v := range []bool{true, false} {
		if got, want := string(AppendBool(nil, v)), marshal(t, v); got != want {
			t.Errorf("AppendBool(%v) = %s, want %s", v, got, want)
		}
	}
	times := []time.Time{
		{}, // zero time
		time.Date(2026, 8, 8, 12, 30, 45, 0, time.UTC),
		time.Date(2026, 8, 8, 12, 30, 45, 123456789, time.UTC),
		time.Date(2026, 8, 8, 12, 30, 45, 120000000, time.UTC), // trailing zeros trimmed
		time.Date(1999, 12, 31, 23, 59, 59, 1, time.FixedZone("X", 5*3600+1800)),
	}
	for _, v := range times {
		if got, want := string(AppendTime(nil, v)), marshal(t, v); got != want {
			t.Errorf("AppendTime(%v) = %s, want %s", v, got, want)
		}
	}
}

var allocSink []byte

// TestAppendAllocFree is the runtime oracle for the //cosmo:alloc-free
// annotations: once the destination has capacity, the primitives
// allocate nothing.
func TestAppendAllocFree(t *testing.T) {
	dst := make([]byte, 0, 4096)
	s := "escaping <markup> & \"quotes\" — héllo   done"
	bs := []byte(s)
	ts := time.Date(2026, 8, 8, 12, 30, 45, 123456789, time.UTC)
	allocs := testing.AllocsPerRun(200, func() {
		b := dst[:0]
		b = AppendString(b, s)
		b = AppendString(b, bs)
		b = AppendFloat(b, 0.123456789)
		b = AppendFloat(b, 2.5e-9)
		b = AppendInt(b, -987654321)
		b = AppendBool(b, true)
		b = AppendTime(b, ts)
		allocSink = b
	})
	if allocs != 0 {
		t.Fatalf("append primitives allocate %v per run, want 0", allocs)
	}
}

// TestBufferPool pins the pool lifecycle: Get re-arms length, Put
// recycles bounded capacities and drops oversized ones.
func TestBufferPool(t *testing.T) {
	b := Get()
	if len(b.B) != 0 {
		t.Fatalf("Get returned len %d, want 0", len(b.B))
	}
	b.B = append(b.B, "hello"...)
	Put(b)
	b2 := Get()
	if len(b2.B) != 0 {
		t.Fatalf("recycled buffer has len %d, want 0", len(b2.B))
	}
	Put(b2)

	huge := &Buffer{B: make([]byte, 0, MaxRetainedBuffer+1)}
	Put(huge) // must be dropped, not retained
	if got := Get(); cap(got.B) > MaxRetainedBuffer {
		t.Fatalf("pool retained an oversized buffer (cap %d)", cap(got.B))
	}
}
