// Package textproc provides the text-processing substrate used across the
// COSMO pipeline: tokenization, sentence segmentation, edit distance,
// lightweight stemming, entropy statistics, and an n-gram language model
// used for perplexity-based filtering (the paper's GPT-2 substitute).
package textproc

import (
	"slices"
	"strings"
	"unicode"
)

// Tokenize splits s into lowercase word tokens. Punctuation separates
// tokens and is dropped, except that intra-word apostrophes and hyphens
// are preserved ("cat's", "co-buy"). It is one pass over one lower-cased
// copy of s: the tokens are substrings of that copy (of s itself when s
// is already lower-case ASCII) in a slice sized by a counting pass.
func Tokenize(s string) []string { return AppendTokens(nil, s) }

// AppendTokens appends Tokenize(s) to dst, growing it at most once. Into
// a dst with room it allocates only the lowered copy of s, and nothing
// when s is already lower-case ASCII.
func AppendTokens(dst []string, s string) []string {
	lower := lowered(s)
	n := 0
	for _, end := nextToken(lower, 0); end >= 0; _, end = nextToken(lower, end) {
		n++
	}
	if n == 0 {
		return dst
	}
	dst = slices.Grow(dst, n)
	for start, end := nextToken(lower, 0); end >= 0; start, end = nextToken(lower, end) {
		dst = append(dst, lower[start:end])
	}
	return dst
}

// CountTokens returns len(Tokenize(s)) without building the tokens or a
// lowered copy: a token is a run of letters and digits, joined across a
// single apostrophe or hyphen that a letter or digit follows. Lower-casing
// maps letters to letters, so it moves no token boundary.
func CountTokens(s string) int {
	n := 0
	inWord, joined := false, false // the last rune is a word's; it is a joiner after one
	for _, r := range s {
		switch {
		case isWordRune(r):
			if !inWord && !joined {
				n++
			}
			inWord, joined = true, false
		case (r == '\'' || r == '-') && inWord:
			inWord, joined = false, true
		default:
			inWord, joined = false, false
		}
	}
	return n
}

// isWordRune reports whether lowered keeps r as part of a word: a letter
// or a digit.
func isWordRune(r rune) bool {
	if r < 0x80 {
		c := byte(r) | 0x20 // lower-cases an ASCII letter
		return 'a' <= c && c <= 'z' || '0' <= r && r <= '9'
	}
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}

// tokenByte marks the bytes of a lowered string that belong to a word:
// ASCII lower-case letters and digits, and every byte of a multi-byte
// rune (lowered leaves only letters and digits above 0x7f).
var tokenByte = func() (t [256]bool) {
	for c := 0; c < 256; c++ {
		t[c] = c >= 0x80 || ('a' <= c && c <= 'z') || ('0' <= c && c <= '9')
	}
	return t
}()

// nextToken returns the bounds of the first token of lower that starts at
// or after i, or end = -1 when there is none. An apostrophe or hyphen
// stays in a token only between two word bytes.
func nextToken[T string | []byte](lower T, i int) (start, end int) {
	for i < len(lower) && !tokenByte[lower[i]] {
		i++
	}
	if i == len(lower) {
		return -1, -1
	}
	start = i
	for i < len(lower) {
		c := lower[i]
		if !tokenByte[c] && !((c == '\'' || c == '-') && i+1 < len(lower) && tokenByte[lower[i+1]]) {
			break
		}
		i++
	}
	return start, i
}

// lowered returns s with every letter lower-cased and, when s is not
// ASCII, every rune that is neither a letter, a digit, an apostrophe nor
// a hyphen replaced by a space. Lower-case ASCII input is returned as is.
func lowered(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return loweredRunes(s)
		}
	}
	return strings.ToLower(s) // ASCII: one copy, none without an upper-case letter
}

// appendLowered appends lowered(s) to dst; only a non-ASCII s allocates.
func appendLowered(dst []byte, s string) []byte {
	base := len(dst)
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x80 {
			return append(dst[:base], loweredRunes(s)...)
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}

// loweredRunes is the non-ASCII path of lowered. Case mapping stays per
// rune with unicode.ToLower (strings.ToLower special-cases some runes,
// e.g. U+0130), and an invalid byte decodes to U+FFFD, a separator.
func loweredRunes(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for _, r := range s {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
		case r == '\'' || r == '-':
			b.WriteByte(byte(r))
		default:
			b.WriteByte(' ')
		}
	}
	return b.String()
}

// CutField returns the first field of s, as strings.Fields splits it,
// and the rest of s after it; field is "" when s has none. Calling it
// again on rest walks s's fields in place.
func CutField(s string) (field, rest string) {
	s = strings.TrimLeftFunc(s, unicode.IsSpace)
	if i := strings.IndexFunc(s, unicode.IsSpace); i >= 0 {
		return s[:i], s[i:]
	}
	return s, ""
}

// NormalizeSpace collapses runs of whitespace into single spaces and trims.
func NormalizeSpace(s string) string {
	if isNormalSpace(s) {
		return s
	}
	return strings.Join(strings.Fields(s), " ")
}

// isNormalSpace reports whether NormalizeSpace would return s unchanged:
// its only whitespace is single ' ' bytes between non-space runes.
func isNormalSpace(s string) bool {
	for i, r := range s {
		switch {
		case r == ' ':
			if i == 0 || i == len(s)-1 || s[i-1] == ' ' {
				return false
			}
		case unicode.IsSpace(r):
			return false
		}
	}
	return true
}

// stopwords is a small English stopword list tuned for e-commerce
// knowledge strings ("used for walking the dog" → content words
// "used walking dog" minus relation markers).
var stopwords = map[string]bool{
	"a": true, "an": true, "the": true, "of": true, "to": true, "in": true,
	"on": true, "for": true, "with": true, "and": true, "or": true,
	"is": true, "are": true, "be": true, "been": true, "being": true,
	"it": true, "its": true, "they": true, "them": true, "their": true,
	"this": true, "that": true, "these": true, "those": true,
	"at": true, "by": true, "as": true, "was": true, "were": true,
	"because": true, "so": true, "can": true, "will": true, "would": true,
}

// IsStopword reports whether the (lowercase) token is a stopword.
func IsStopword(tok string) bool { return stopwords[tok] }

// ContentTokens returns the tokens of s with stopwords removed.
func ContentTokens(s string) []string {
	toks := Tokenize(s)
	out := toks[:0]
	for _, t := range toks {
		if !stopwords[t] {
			out = append(out, t)
		}
	}
	return out
}

// ContentStems returns the stemmed content tokens of s: tokenize, drop
// stopwords and stem in one pass over one slice.
func ContentStems(s string) []string { return AppendContentStems(nil, s) }

// AppendContentStems appends ContentStems(s) to dst, for a caller that
// encodes several strings into one reused buffer.
func AppendContentStems(dst []string, s string) []string {
	base := len(dst)
	dst = AppendTokens(dst, s)
	out := dst[:base]
	for _, t := range dst[base:] {
		if !stopwords[t] {
			out = append(out, Stem(t))
		}
	}
	return out
}

// Stem applies a tiny suffix-stripping stemmer (a Porter-lite) adequate
// for matching inflected forms of e-commerce vocabulary
// ("protects" / "protecting" / "protection" → "protect").
func Stem(tok string) string {
	t := tok
	for _, suf := range []string{"'s", "'"} {
		t = strings.TrimSuffix(t, suf)
	}
	rules := []struct{ suffix, replace string }{
		{"ations", "ate"}, {"ation", "ate"}, {"nesses", "ness"},
		{"ements", "ement"}, {"ings", ""}, {"ing", ""},
		{"ies", "y"}, {"ied", "y"}, {"edly", ""}, {"eds", ""},
		{"ed", ""}, {"es", ""}, {"s", ""},
	}
	for _, r := range rules {
		if strings.HasSuffix(t, r.suffix) && len(t)-len(r.suffix) >= 3 {
			return t[:len(t)-len(r.suffix)] + r.replace
		}
	}
	return t
}
