package textproc

import (
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"
)

// Fuzz targets double as robustness tests: `go test` runs the seed
// corpus; `go test -fuzz=FuzzTokenize` explores further.

func FuzzTokenize(f *testing.F) {
	for _, seed := range tokenizeCorpus {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		toks := Tokenize(s)
		if want := refTokenize(s); !reflect.DeepEqual(toks, want) {
			t.Fatalf("Tokenize(%q) = %q, reference %q", s, toks, want)
		}
		for _, tok := range toks {
			if tok == "" {
				t.Fatal("empty token")
			}
			if !utf8.ValidString(tok) && utf8.ValidString(s) {
				t.Fatalf("invalid UTF-8 token %q from valid input", tok)
			}
		}
		// Idempotence: tokenizing the joined tokens is stable.
		again := Tokenize(strings.Join(toks, " "))
		if len(again) != len(toks) {
			t.Fatalf("not idempotent: %v vs %v", toks, again)
		}
	})
}

// FuzzStemOverlap holds StemOverlap to the two-set reference. The lists
// are the space-separated fields of each input, so stems repeat within
// and across lists.
func FuzzStemOverlap(f *testing.F) {
	long := strings.Repeat("tent lamp stove tent ", 12)
	for _, seed := range [][2]string{
		{"", ""}, {"a", ""}, {"", "b"}, {"walk dog", "walk dog"},
		{"walk walk dog", "dog dog"}, {"tent tent tent", "tent"},
		{"camp hike camp", "hike lamp lamp hike"}, {"x y z", "a b c"},
		{long, "tent stove"}, {long, long}, {long + "boot", "lamp boot boot"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, x, y string) {
		a, b := strings.Fields(x), strings.Fields(y)
		if got, want := StemOverlap(a, b), stemOverlapReference(a, b); got != want {
			t.Fatalf("StemOverlap(%q, %q) = %v, reference %v", a, b, got, want)
		}
	})
}

func FuzzSplitSentences(f *testing.F) {
	for _, seed := range []string{
		"", "One. Two.", "Dr. Smith went home.", "1.5 liters",
		"no terminator", "!!!", "a.b.c.", "é. ü. ñ.",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sentences := SplitSentences(s)
		for _, sent := range sentences {
			if sent == "" {
				t.Fatal("empty sentence")
			}
		}
		// FirstSentence must agree with SplitSentences.
		first := FirstSentence(s)
		if len(sentences) == 0 && first != "" {
			t.Fatalf("FirstSentence %q but no sentences", first)
		}
		if len(sentences) > 0 && first != sentences[0] {
			t.Fatalf("FirstSentence %q != sentences[0] %q", first, sentences[0])
		}
	})
}

func FuzzEditDistance(f *testing.F) {
	f.Add("kitten", "sitting")
	f.Add("", "abc")
	f.Add("日本", "日本語")
	f.Fuzz(func(t *testing.T, a, b string) {
		d := EditDistance(a, b)
		if d != EditDistance(b, a) {
			t.Fatal("not symmetric")
		}
		la, lb := len([]rune(a)), len([]rune(b))
		hi := la
		if lb > hi {
			hi = lb
		}
		if d > hi {
			t.Fatalf("distance %d exceeds max length %d", d, hi)
		}
		if a == b && d != 0 {
			t.Fatal("identical strings nonzero distance")
		}
	})
}

func FuzzPerplexity(f *testing.F) {
	f.Add("used for camping")
	f.Add("")
	f.Add("\x00 control")
	f.Fuzz(func(t *testing.T, s string) {
		m, v := trainedLM()
		p := m.Perplexity(ids(v, s))
		if p < 0 {
			t.Fatalf("negative perplexity %v", p)
		}
	})
}
