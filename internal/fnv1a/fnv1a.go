// Package fnv1a is FNV-1a (hash/fnv semantics) as plain functions over a
// running state. A feature hasher folds the parts of a feature into the
// state one after another — FNV of a concatenation equals feeding the
// parts — so the hot paths neither build the concatenated feature string
// nor allocate a hash.Hash per feature.
package fnv1a

// Offset32 and Offset64 are the initial states.
const (
	Offset32 uint32 = 2166136261
	Offset64 uint64 = 14695981039346656037

	prime32 uint32 = 16777619
	prime64 uint64 = 1099511628211
)

// String32 folds s into the 32-bit state h.
func String32(h uint32, s string) uint32 {
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime32
	}
	return h
}

// Byte32 folds one byte into the 32-bit state h.
func Byte32(h uint32, c byte) uint32 {
	h ^= uint32(c)
	h *= prime32
	return h
}

// String64 folds s into the 64-bit state h: the same state for the same
// bytes, whether they arrive as a string or a byte slice.
func String64[S string | []byte](h uint64, s S) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// Byte64 folds one byte into the 64-bit state h.
func Byte64(h uint64, c byte) uint64 {
	h ^= uint64(c)
	h *= prime64
	return h
}
