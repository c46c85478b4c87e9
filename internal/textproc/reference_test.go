package textproc

import (
	"math/rand"
	"strings"
	"testing"
)

// firstSentenceReference is FirstSentence as it was before the byte
// scan: the head of SplitSentences.
func firstSentenceReference(text string) string {
	ss := SplitSentences(text)
	if len(ss) == 0 {
		return ""
	}
	return ss[0]
}

// normalizeSpaceReference is NormalizeSpace as it was before it
// returned normalized input unchanged.
func normalizeSpaceReference(s string) string {
	return strings.Join(strings.Fields(s), " ")
}

// randomTexts builds n texts from pieces that sit on every branch of
// the sentence splitter and the space normaliser: terminators,
// abbreviations in both cases (and with a KELVIN SIGN that lower-cases
// to 'k'), decimals, closing quotes, ASCII and Unicode whitespace,
// multi-byte letters and an invalid byte.
func randomTexts(n int) []string {
	pieces := []string{
		"a", "Tent", "x", " ", "  ", "\t", "\n", "\r", ".", "!", "?", "...",
		"\"", "'", ")", "1", "2.5", "Dr", "mr", "MRS", "e.g", "i.e", "etc", "P\u212Ag",
		"approx", "No", "é", "日本", "\u0130", "\u00a0", "\u2028", "\u3000", "\u0085", "\xff", "%",
	}
	rng := rand.New(rand.NewSource(1))
	texts := []string{"", " ", "One. Two.", "Dr. Smith went home.", "1.5 liters", "é. ü. ñ.", "a  b", " a", "a "}
	for len(texts) < n {
		var b strings.Builder
		for k := rng.Intn(12); k >= 0; k-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		texts = append(texts, b.String())
	}
	return texts
}

func TestFirstSentenceMatchesReference(t *testing.T) {
	for _, s := range randomTexts(50000) {
		if got, want := FirstSentence(s), firstSentenceReference(s); got != want {
			t.Fatalf("FirstSentence(%q) = %q, reference %q", s, got, want)
		}
	}
}

func TestNormalizeSpaceMatchesReference(t *testing.T) {
	for _, s := range randomTexts(50000) {
		if got, want := NormalizeSpace(s), normalizeSpaceReference(s); got != want {
			t.Fatalf("NormalizeSpace(%q) = %q, reference %q", s, got, want)
		}
	}
}

// TestTextHelpersAllocBudget: a valid first sentence is a substring of
// its text and normalized text comes back as it is.
func TestTextHelpersAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const text = "  used for camping in the rain. It keeps you dry! More text follows."
	if a := testing.AllocsPerRun(100, func() { _ = FirstSentence(text) }); a != 0 {
		t.Errorf("FirstSentence allocates %v times, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { _ = NormalizeSpace("used for camping in the rain") }); a != 0 {
		t.Errorf("NormalizeSpace of normalized text allocates %v times, want 0", a)
	}
}

// stemOverlapReference is StemOverlap as it was before it counted in
// place: one set per list, then the shared keys.
func stemOverlapReference(a, b []string) float64 {
	sa := map[string]bool{}
	for _, t := range a {
		sa[t] = true
	}
	sb := map[string]bool{}
	for _, t := range b {
		sb[t] = true
	}
	if len(sa) == 0 && len(sb) == 0 {
		return 0
	}
	inter := 0
	for t := range sa {
		if sb[t] {
			inter++
		}
	}
	union := len(sa) + len(sb) - inter
	return float64(inter) / float64(union)
}

// incompleteEndings are the last tokens after which the completeness
// rule calls a string unfinished.
var incompleteEndings = []string{
	"and", "or", "but", "the", "a", "an", "of", "to", "for", "with",
	"in", "on", "at", "by", "because", "is", "are", "that", "which",
}

// looksCompleteReference is the completeness rule as it stood over
// Tokenize's strings, before the vocabulary: at least two tokens, no
// trailing comma or unfinished ending, and one non-stopword.
func looksCompleteReference(s string) bool {
	toks := Tokenize(s)
	if len(toks) < 2 {
		return false
	}
	last := toks[len(toks)-1]
	for _, w := range incompleteEndings {
		if last == w {
			return false
		}
	}
	if strings.HasSuffix(strings.TrimSpace(s), ",") {
		return false
	}
	content := 0
	for _, t := range toks {
		if !stopwords[t] {
			content++
		}
	}
	return content >= 1
}
