package textproc

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestEditDistanceBasic(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"same", "same", 0},
		{"a", "b", 1},
	}
	for _, c := range cases {
		if got := EditDistance(c.a, c.b); got != c.want {
			t.Errorf("EditDistance(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestEditDistanceSymmetryProperty(t *testing.T) {
	f := func(a, b string) bool {
		return EditDistance(a, b) == EditDistance(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEditDistanceIdentityProperty(t *testing.T) {
	f := func(a string) bool { return EditDistance(a, a) == 0 }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEditDistanceTriangleProperty(t *testing.T) {
	f := func(a, b, c string) bool {
		return EditDistance(a, c) <= EditDistance(a, b)+EditDistance(b, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEditDistanceBoundedProperty(t *testing.T) {
	f := func(a, b string) bool {
		d := EditDistance(a, b)
		la, lb := len([]rune(a)), len([]rune(b))
		hi := la
		if lb > hi {
			hi = lb
		}
		lo := la - lb
		if lo < 0 {
			lo = -lo
		}
		return d >= lo && d <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalizedEditDistance(t *testing.T) {
	if got := NormalizedEditDistance("", ""); got != 0 {
		t.Errorf("empty = %v", got)
	}
	if got := NormalizedEditDistance("abcd", "abcd"); got != 0 {
		t.Errorf("identical = %v", got)
	}
	if got := NormalizedEditDistance("abcd", "wxyz"); got != 1 {
		t.Errorf("disjoint = %v", got)
	}
}

func TestTokenOverlap(t *testing.T) {
	if got := TokenOverlap("walking the dog", "walk a dog"); got != 1.0 {
		t.Errorf("stems should fully overlap, got %v", got)
	}
	if got := TokenOverlap("camera lens", "hiking boots"); got != 0 {
		t.Errorf("disjoint should be 0, got %v", got)
	}
}

func BenchmarkEditDistance(b *testing.B) {
	s1 := "customers bought them together because they provide protection for the camera"
	s2 := "capable of providing protection for camera and screen"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EditDistance(s1, s2)
	}
}

// TestWithinEditRatio: the banded early-exit test answers exactly like
// NormalizedEditDistance(a, b) <= r, which stays as its oracle — on
// hand-picked edges and on random ASCII and multi-byte pairs whose
// distance lands on both sides of the ratio.
func TestWithinEditRatio(t *testing.T) {
	ratios := []float64{0, 0.1, 0.25, 1.0 / 3, 0.5, 0.75, 0.999, 1, 1.5, -0.1, math.NaN(), math.Inf(1)}
	check := func(a, b string) {
		t.Helper()
		for _, r := range ratios {
			if got, want := WithinEditRatio(a, b, r), NormalizedEditDistance(a, b) <= r; got != want {
				t.Fatalf("WithinEditRatio(%q, %q, %v) = %v, NormalizedEditDistance = %v",
					a, b, r, got, NormalizedEditDistance(a, b))
			}
		}
		// The ratio the pair sits on, and its float neighbours.
		d := NormalizedEditDistance(a, b)
		for _, r := range []float64{d, math.Nextafter(d, 0), math.Nextafter(d, 2)} {
			if got, want := WithinEditRatio(a, b, r), d <= r; got != want {
				t.Fatalf("WithinEditRatio(%q, %q, %v) = %v at the boundary, distance %v", a, b, r, got, d)
			}
		}
	}
	for _, p := range [][2]string{
		{"", ""}, {"", "abc"}, {"abc", ""}, {"kitten", "sitting"}, {"same", "same"},
		{"\xff", "\xfe"}, {"a\xffb", "a�b"}, {"日本", "日本語"}, {"héllo", "hello"},
		{strings.Repeat("ab", 150), strings.Repeat("ab", 149) + "ba"},
		{"camping air mattress", "used for camping with an air mattress"},
	} {
		check(p[0], p[1])
		check(p[1], p[0])
	}
	rng := rand.New(rand.NewSource(19))
	alphabets := [][]rune{[]rune("abc "), []rune("aé日İ ")}
	for i := 0; i < 4000; i++ {
		alpha := alphabets[i%len(alphabets)]
		a := make([]rune, rng.Intn(40))
		for j := range a {
			a[j] = alpha[rng.Intn(len(alpha))]
		}
		// b is a within a few edits, so the pair sits near the boundary.
		b := append([]rune(nil), a...)
		for e := rng.Intn(12); e > 0; e-- {
			switch pos := rng.Intn(len(b) + 1); rng.Intn(3) {
			case 0:
				b = append(b[:pos], append([]rune{alpha[rng.Intn(len(alpha))]}, b[pos:]...)...)
			case 1:
				if pos < len(b) {
					b = append(b[:pos], b[pos+1:]...)
				}
			default:
				if pos < len(b) {
					b[pos] = alpha[rng.Intn(len(alpha))]
				}
			}
		}
		check(string(a), string(b))
	}
}
