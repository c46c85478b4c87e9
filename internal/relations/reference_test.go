package relations

import (
	"strings"
	"testing"
)

// classifyTailReference is ClassifyTail as it was before it read the
// tail's words in place: over strings.Fields of the lowered tail.
func classifyTailReference(tail string) TailType {
	words := strings.Fields(strings.ToLower(tail))
	if len(words) == 0 {
		return TailConcept
	}
	for _, w := range words {
		if bodyParts[w] {
			return TailBodyPart
		}
	}
	for _, w := range words {
		if audienceWords[w] {
			return TailAudience
		}
	}
	if eventVerbs[words[0]] {
		return TailEvent
	}
	for _, w := range words {
		if eventVerbs[w] {
			return TailEvent
		}
	}
	return TailFunction
}

// FuzzClassifyTail holds ClassifyTail to classifyTailReference, from
// tails of every tail type, upper case, ASCII and Unicode whitespace,
// letters that lower-case to other byte lengths, and an invalid byte.
func FuzzClassifyTail(f *testing.F) {
	for _, s := range []string{
		"", " \t", "walking the dog", "Dry SKIN", "kids and hands", "busy Parents",
		"keep warm", "go hiking", "wash hands", "İstanbul wedding", "Kids", "teeth\xff", "RUNNERS　camping",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, tail string) {
		if got, want := ClassifyTail(tail), classifyTailReference(tail); got != want {
			t.Fatalf("ClassifyTail(%q) = %s, reference %s", tail, got, want)
		}
	})
}
