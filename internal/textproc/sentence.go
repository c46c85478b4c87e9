package textproc

import (
	"strings"
	"unicode/utf8"
)

// abbreviations that should not terminate a sentence when followed by '.'.
var abbreviations = map[string]bool{
	"mr": true, "mrs": true, "ms": true, "dr": true, "st": true,
	"vs": true, "etc": true, "e.g": true, "i.e": true, "inc": true,
	"oz": true, "fl": true, "pkg": true, "no": true, "approx": true,
}

// SplitSentences segments text into sentences. It is the reproduction's
// substitute for the nltk sentence segmenter used by the paper's
// rule-based filter: the first sentence of an LLM generation is extracted
// and the rest discarded.
func SplitSentences(text string) []string {
	var sentences []string
	var b strings.Builder
	runes := []rune(text)
	for i := 0; i < len(runes); i++ {
		r := runes[i]
		b.WriteRune(r)
		if r != '.' && r != '!' && r != '?' {
			continue
		}
		// Look back for abbreviation before '.'.
		if r == '.' {
			cur := strings.ToLower(strings.TrimSpace(b.String()))
			cur = strings.TrimSuffix(cur, ".")
			if j := strings.LastIndexAny(cur, " \t"); j >= 0 {
				cur = cur[j+1:]
			}
			if abbreviations[cur] {
				continue
			}
			// Decimal number like "2.5".
			if i > 0 && i+1 < len(runes) && isDigit(runes[i-1]) && isDigit(runes[i+1]) {
				continue
			}
		}
		// Sentence boundary requires following space+capital, end of text,
		// or a newline.
		if i+1 >= len(runes) || isBoundaryFollow(runes, i+1) {
			if s := strings.TrimSpace(b.String()); s != "" {
				sentences = append(sentences, s)
			}
			b.Reset()
		}
	}
	if s := strings.TrimSpace(b.String()); s != "" {
		sentences = append(sentences, s)
	}
	return sentences
}

func isBoundaryFollow(runes []rune, i int) bool {
	// Skip closing quotes/brackets.
	for i < len(runes) && (runes[i] == '"' || runes[i] == '\'' || runes[i] == ')') {
		i++
	}
	if i >= len(runes) {
		return true
	}
	return runes[i] == ' ' || runes[i] == '\n' || runes[i] == '\t'
}

func isDigit(r rune) bool { return r >= '0' && r <= '9' }

// FirstSentence returns the first sentence of text, or "" if text is
// blank: SplitSentences(text)[0], found without building the others.
// For valid UTF-8 it is a substring of text; SplitSentences decodes an
// invalid byte to U+FFFD, so such a text takes that path.
func FirstSentence(text string) string {
	if !utf8.ValidString(text) {
		if ss := SplitSentences(text); len(ss) > 0 {
			return ss[0]
		}
		return ""
	}
	// '.', '!' and '?' are single bytes that no multi-byte rune contains,
	// and SplitSentences' look-arounds are ASCII, so a byte scan takes
	// the same decisions as its rune scan.
	for i := 0; i < len(text); i++ {
		c := text[i]
		if c != '.' && c != '!' && c != '?' {
			continue
		}
		end := i + 1
		if c == '.' {
			if endsWithAbbreviation(text[:end]) {
				continue
			}
			if i > 0 && end < len(text) && isDigit(rune(text[i-1])) && isDigit(rune(text[end])) {
				continue
			}
		}
		if end == len(text) || boundaryFollows(text[end:]) {
			return strings.TrimSpace(text[:end])
		}
	}
	return strings.TrimSpace(text)
}

// endsWithAbbreviation is SplitSentences' abbreviation test on the text
// up to and including a '.': the last word before it, lower-cased.
func endsWithAbbreviation(s string) bool {
	word := strings.TrimSuffix(strings.TrimSpace(s), ".")
	if j := strings.LastIndexAny(word, " \t"); j >= 0 {
		word = word[j+1:]
	}
	return abbreviations[strings.ToLower(word)]
}

// boundaryFollows is isBoundaryFollow on the text after a terminator.
func boundaryFollows(s string) bool {
	s = strings.TrimLeft(s, "\"')")
	return s == "" || s[0] == ' ' || s[0] == '\n' || s[0] == '\t'
}
