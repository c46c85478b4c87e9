package fnv1a

import (
	"hash/fnv"
	"testing"
)

// TestMatchesHashFNV: feeding a string part by part, bytes included,
// ends in the state hash/fnv reaches on the concatenation.
func TestMatchesHashFNV(t *testing.T) {
	cases := [][]string{
		{""}, {"w:", "protect"}, {"b:", "air", "_", "mattress"},
		{"x:", "camp", "|", "tent"}, {"task:", "plausibility"}, {"\x00\xff", "é"},
	}
	for _, parts := range cases {
		h32, h64 := fnv.New32a(), fnv.New64a()
		s32, s64 := Offset32, Offset64
		for _, p := range parts {
			h32.Write([]byte(p))
			h64.Write([]byte(p))
			if len(p) == 1 {
				s32, s64 = Byte32(s32, p[0]), Byte64(s64, p[0])
			} else {
				s32, s64 = String32(s32, p), String64(s64, p)
			}
		}
		if s32 != h32.Sum32() {
			t.Errorf("32-bit state of %q = %#x, hash/fnv %#x", parts, s32, h32.Sum32())
		}
		if s64 != h64.Sum64() {
			t.Errorf("64-bit state of %q = %#x, hash/fnv %#x", parts, s64, h64.Sum64())
		}
		joined := []byte{}
		for _, p := range parts {
			joined = append(joined, p...)
		}
		if b64 := String64(Offset64, joined); b64 != h64.Sum64() {
			t.Errorf("String64 of bytes %q = %#x, hash/fnv %#x", joined, b64, h64.Sum64())
		}
	}
}
