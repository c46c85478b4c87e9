package textproc

import (
	"strings"
	"testing"
)

func TestSplitSentencesBasic(t *testing.T) {
	ss := SplitSentences("They are used for hiking. They also keep feet dry! Do you agree?")
	if len(ss) != 3 {
		t.Fatalf("got %d sentences: %v", len(ss), ss)
	}
	if ss[0] != "They are used for hiking." {
		t.Errorf("first sentence = %q", ss[0])
	}
}

func TestSplitSentencesAbbreviation(t *testing.T) {
	ss := SplitSentences("Dr. Smith bought 2.5 oz. of tea. It was good.")
	if len(ss) != 2 {
		t.Fatalf("got %d sentences: %v", len(ss), ss)
	}
}

func TestSplitSentencesDecimal(t *testing.T) {
	ss := SplitSentences("The bottle holds 1.5 liters of water.")
	if len(ss) != 1 {
		t.Fatalf("decimal split wrongly: %v", ss)
	}
}

func TestSplitSentencesNoTerminator(t *testing.T) {
	ss := SplitSentences("used for walking the dog")
	if len(ss) != 1 || ss[0] != "used for walking the dog" {
		t.Fatalf("got %v", ss)
	}
}

func TestSplitSentencesEmpty(t *testing.T) {
	if ss := SplitSentences(""); len(ss) != 0 {
		t.Fatalf("got %v", ss)
	}
	if ss := SplitSentences("   \n  "); len(ss) != 0 {
		t.Fatalf("got %v", ss)
	}
}

func TestFirstSentence(t *testing.T) {
	got := FirstSentence("capable of holding snacks. 2. used for parties.")
	if got != "capable of holding snacks." {
		t.Errorf("got %q", got)
	}
	if FirstSentence("") != "" {
		t.Error("empty input should give empty first sentence")
	}
}

// TestLooksComplete holds the vocabulary's rule and the reference rule
// to hand-picked verdicts, an unfinished ending of each kind included.
func TestLooksComplete(t *testing.T) {
	complete := []string{
		"used for walking the dog",
		"capable of holding snacks",
		"they keep the baby's feet dry",
	}
	incomplete := []string{
		"used for the",
		"capable of",
		"they are good because",
		"nice and",
		"used for walking the dog and",
		"dog",
		"",
		"they can be used with,",
	}
	for _, w := range incompleteEndings {
		incomplete = append(incomplete, "used for walking the dog "+w)
	}
	v := NewVocab()
	v.Add(complete...)
	v.Add(incomplete...)
	for want, texts := range map[bool][]string{true: complete, false: incomplete} {
		for _, s := range texts {
			if got := v.LooksComplete(s, v.Tokens(s)); got != want {
				t.Errorf("Vocab LooksComplete(%q) = %v, want %v", s, got, want)
			}
			if got := looksCompleteReference(s); got != want {
				t.Errorf("reference LooksComplete(%q) = %v, want %v", s, got, want)
			}
		}
	}
}

func TestSplitSentencesReconstructs(t *testing.T) {
	text := "First one. Second one! Third one?"
	ss := SplitSentences(text)
	joined := strings.Join(ss, " ")
	if joined != text {
		t.Errorf("reconstruction mismatch: %q vs %q", joined, text)
	}
}
