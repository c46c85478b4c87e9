package textproc

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

func TestTokenizeBasic(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Hello, World!", []string{"hello", "world"}},
		{"cat's toy", []string{"cat's", "toy"}},
		{"co-buy behavior", []string{"co-buy", "behavior"}},
		{"", nil},
		{"   ", nil},
		{"USB-C 2.0 cable", []string{"usb-c", "2", "0", "cable"}},
		{"dog-", []string{"dog"}},
		{"'quoted'", []string{"quoted"}},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestTokenizeLowercases(t *testing.T) {
	for _, tok := range Tokenize("MIXED Case TOKENS Here") {
		if tok != strings.ToLower(tok) {
			t.Errorf("token %q not lowercase", tok)
		}
	}
}

func TestTokenizeIdempotentProperty(t *testing.T) {
	// Tokenizing the joined tokens yields the same tokens.
	f := func(s string) bool {
		first := Tokenize(s)
		second := Tokenize(strings.Join(first, " "))
		return reflect.DeepEqual(first, second)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalizeSpace(t *testing.T) {
	if got := NormalizeSpace("  a \t b\n\nc  "); got != "a b c" {
		t.Errorf("got %q", got)
	}
}

func TestContentTokens(t *testing.T) {
	got := ContentTokens("used for walking the dog")
	want := []string{"used", "walking", "dog"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestStem(t *testing.T) {
	cases := map[string]string{
		"protects":   "protect",
		"protecting": "protect",
		"walked":     "walk",
		"walking":    "walk",
		"dogs":       "dog",
		"dog":        "dog",
		"batteries":  "battery",
		"it":         "it", // too short to strip
		"cat's":      "cat",
	}
	for in, want := range cases {
		if got := Stem(in); got != want {
			t.Errorf("Stem(%q) = %q, want %q", in, got, want)
		}
	}
}

// stemAll stems every token: the whole-list stemming the callers of Stem
// did before they stemmed inline.
func stemAll(tokens []string) []string {
	out := make([]string, len(tokens))
	for i, t := range tokens {
		out[i] = Stem(t)
	}
	return out
}

func TestStemAllLength(t *testing.T) {
	in := []string{"walking", "dogs", "fast"}
	out := stemAll(in)
	if len(out) != len(in) {
		t.Fatalf("length changed: %d vs %d", len(out), len(in))
	}
}

func TestIsStopword(t *testing.T) {
	if !IsStopword("the") {
		t.Error("'the' should be a stopword")
	}
	if IsStopword("camera") {
		t.Error("'camera' should not be a stopword")
	}
}

func TestStemNeverEmptyProperty(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range Tokenize(s) {
			if Stem(tok) == "" && tok != "" && tok != "'" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// refTokenize is the previous Tokenize — a []rune copy and one
// strings.Builder string per token — kept as the oracle the single-pass
// tokenizer must match token for token.
func refTokenize(s string) []string {
	var tokens []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			tokens = append(tokens, b.String())
			b.Reset()
		}
	}
	runes := []rune(s)
	for i, r := range runes {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
		case (r == '\'' || r == '-') && b.Len() > 0 && i+1 < len(runes) &&
			(unicode.IsLetter(runes[i+1]) || unicode.IsDigit(runes[i+1])):
			b.WriteRune(r)
		default:
			flush()
		}
	}
	flush()
	return tokens
}

// tokenizeCorpus holds the inputs where a shortcut would show: case
// mappings that change the encoded length (U+0130, the Kelvin sign),
// apostrophes and hyphens at every position, invalid UTF-8.
var tokenizeCorpus = []string{
	"", "hello world", "cat's toy", "co-buy", "日本語", "\x00\xff",
	"a-", "-a", "''", "1.5 oz.", "USED FOR X",
	"İstanbul", "K9", "cat's", "co--buy", "a-\xff", "é-É", "Ⱥ-ⱥ",
	"search query: Camping | purchased: Acme Air-Mattress", "MiXeD CaSe ascii",
	"trailing'", "x'é", "�-a", "ǅ",
}

func TestTokenizeMatchesReference(t *testing.T) {
	for _, s := range tokenizeCorpus {
		if got, want := Tokenize(s), refTokenize(s); !reflect.DeepEqual(got, want) {
			t.Errorf("Tokenize(%q) = %q, reference %q", s, got, want)
		}
	}
	// Every rune between two letters, and leading a token after a hyphen.
	for r := rune(0); r <= unicode.MaxRune; r++ {
		s := "a" + string(r) + "b-" + string(r)
		if got, want := Tokenize(s), refTokenize(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("Tokenize(%q) = %q, reference %q", s, got, want)
		}
	}
}

func TestContentStems(t *testing.T) {
	for _, s := range append(tokenizeCorpus, "used for walking the dogs", "the of and", trainingSentences[3]) {
		got, want := ContentStems(s), stemAll(ContentTokens(s))
		if len(got) != len(want) {
			t.Fatalf("ContentStems(%q) = %q, want %q", s, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("ContentStems(%q) = %q, want %q", s, got, want)
			}
		}
	}
}

// TestTokenizeAllocBudget: the result slice, plus one lower-cased copy
// only when the input has something to lower.
func TestTokenizeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	lower := "search query: camping | purchased: acme air-mattress for 2"
	if n := testing.AllocsPerRun(100, func() { Tokenize(lower) }); n > 1 {
		t.Errorf("lower-case ASCII: %v allocs, budget 1", n)
	}
	mixed := "search query: Camping | purchased: Acme Air-Mattress for 2"
	if n := testing.AllocsPerRun(100, func() { Tokenize(mixed) }); n > 2 {
		t.Errorf("mixed-case ASCII: %v allocs, budget 2", n)
	}
}

var tokenSink []string

func BenchmarkTokenize(b *testing.B) {
	for _, bc := range []struct{ name, in string }{
		{"lower", "search query: camping | purchased: acme ultralight air mattress for two people"},
		{"mixed", "search query: Camping | purchased: Acme Ultralight Air Mattress for Two People"},
		{"unicode", "search query: café | purchased: Ünited İstanbul crème brûlée set"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tokenSink = Tokenize(bc.in)
			}
		})
	}
}
