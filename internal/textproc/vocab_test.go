package textproc

import (
	"slices"
	"strings"
	"testing"
)

// FuzzVocab holds the vocabulary to the string path: a text's tokens
// and content stems read through its IDs are those of Tokenize and
// AppendContentStems, every token's stem and stopword flag are Stem's
// and IsStopword's, its completeness is looksCompleteReference's, and
// CountTokens counts what Tokenize builds. The vocabulary holds the
// tokenizer corpus first, so a fuzzed text shares tokens and stems with
// texts added before it, and a text added after it does not change its
// tokens. One seed ends in each unfinished ending.
func FuzzVocab(f *testing.F) {
	for _, seed := range tokenizeCorpus {
		f.Add(seed)
	}
	f.Add("used for walking the dogs and walked dog's")
	for _, w := range incompleteEndings {
		f.Add("used for walking the dog " + w)
	}
	// Mixed case, ASCII (lowered in the vocabulary's buffer) and not.
	f.Add("Search Query: Tent-Stakes | purchased: Vertex Waterproof Stakes for Windy NIGHTS")
	f.Add("Crème BRÛLÉE Ramekins for Café Nights, İstanbul Edition")
	f.Fuzz(func(t *testing.T, s string) {
		want := Tokenize(s)
		if n := CountTokens(s); n != len(want) {
			t.Fatalf("CountTokens(%q) = %d, len(Tokenize) %d", s, n, len(want))
		}
		v := NewVocab()
		v.Add(tokenizeCorpus...)
		v.Add(s, s)
		v.Add(strings.ToUpper(s)) // reuses the lowering buffer s's tokens were cut from
		ids := v.Tokens(s)
		got := make([]string, len(ids))
		for i, id := range ids {
			got[i] = v.tokens[id].text
		}
		if !slices.Equal(got, want) {
			t.Fatalf("Vocab tokens of %q = %q, Tokenize %q", s, got, want)
		}
		var stems []string
		for _, st := range v.AppendContentStems(nil, s) {
			stems = append(stems, v.StemText(st))
		}
		if want := AppendContentStems(nil, s); !slices.Equal(stems, want) {
			t.Fatalf("Vocab content stems of %q = %q, AppendContentStems %q", s, stems, want)
		}
		if got, want := v.LooksComplete(s, ids), looksCompleteReference(s); got != want {
			t.Fatalf("Vocab LooksComplete(%q) = %v, reference %v", s, got, want)
		}
		for id := int32(0); int(id) < len(v.tokens); id++ {
			tok := v.tokens[id].text
			if v.StemText(v.Stem(id)) != Stem(tok) || v.IsStopword(id) != IsStopword(tok) {
				t.Fatalf("token %q: stem %q stopword %v, want %q %v",
					tok, v.StemText(v.Stem(id)), v.IsStopword(id), Stem(tok), IsStopword(tok))
			}
		}
	})
}

// TestVocabSharesStems: tokens that stem alike share one stem ID, and a
// text is tokenized once however often it is added.
func TestVocabSharesStems(t *testing.T) {
	v := NewVocab()
	v.Add("walking walked", "Walking walked", "walking walked")
	a, b := v.Tokens("walking walked"), v.Tokens("Walking walked")
	if !slices.Equal(a, b) || a[0] == a[1] || v.Stem(a[0]) != v.Stem(a[1]) || v.NumStems() != 1 {
		t.Fatalf("tokens %v and %v, stems %d and %d of %d", a, b, v.Stem(a[0]), v.Stem(a[1]), v.NumStems())
	}
	if len(v.ids) != 4 {
		t.Fatalf("%d token IDs held for two distinct texts of two tokens", len(v.ids))
	}
}

// TestVocabAllocBudget: adding a text the vocabulary holds allocates
// nothing, and reading one back allocates nothing.
func TestVocabAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const s = "Search query: Camping | purchased: Acme Air-Mattress for 2"
	v := NewVocab()
	v.Add(s)
	dst := make([]int32, 0, 16)
	if n := testing.AllocsPerRun(100, func() {
		v.Add(s)
		dst = v.AppendContentStems(dst[:0], s)
		_ = v.LooksComplete(s, v.Tokens(s))
		_ = CountTokens(s)
	}); n != 0 {
		t.Errorf("%v allocs, want 0", n)
	}
}
