package behavior

import (
	"strings"
	"testing"

	"cosmo/internal/catalog"
	"cosmo/internal/relations"
)

// broadQueryReference is BroadQuery as it was before it read the tail in
// place: over strings.Fields.
func broadQueryReference(in catalog.Intent) string {
	words := strings.Fields(in.Tail)
	for _, w := range words {
		switch w {
		case "a", "an", "the", "in", "on", "at", "of", "for", "to", "with", "before", "while":
			continue
		}
		return w
	}
	if len(words) > 0 {
		return words[0]
	}
	return in.Tail
}

// FuzzBroadQuery holds BroadQuery to broadQueryReference, from every
// tail of the world and tails of stopwords only, ASCII and Unicode
// whitespace, and an invalid byte.
func FuzzBroadQuery(f *testing.F) {
	c := catalog.Generate(catalog.Config{ProductsPerType: 1, Seed: 1})
	for _, tn := range c.Types() {
		pt, _ := c.Type(tn)
		for _, in := range pt.Intents {
			f.Add(in.Tail)
		}
	}
	for _, s := range []string{"", " ", "the", "in the  on", " \tcamping\n", " hiking trips", "of　the\u0085dog", "\xff a", "a\xffb"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, tail string) {
		in := catalog.Intent{Relation: relations.UsedForEve, Tail: tail}
		if got, want := BroadQuery(in), broadQueryReference(in); got != want {
			t.Fatalf("BroadQuery(%q) = %q, reference %q", tail, got, want)
		}
	})
}

var sink int

// TestWorldLookupsAllocFree: the per-event world lookups allocate
// nothing. OfType is a view, AppendSharedIntents fills the caller's
// stack array, Surface reads a table made once — and equals Verbalize
// for every world intent — and BroadQuery reads the tail in place.
func TestWorldLookupsAllocFree(t *testing.T) {
	c := catalog.Generate(catalog.Config{ProductsPerType: 2, Seed: 1})
	var intents []catalog.Intent
	for _, tn := range c.Types() {
		pt, _ := c.Type(tn)
		intents = append(intents, pt.Intents...)
	}
	for _, in := range intents {
		if got, want := in.Surface(), relations.Verbalize(in.Relation, in.Tail); got != want {
			t.Fatalf("Surface of %+v = %q, Verbalize %q", in, got, want)
		}
	}
	a, b := c.OfType("tent")[0], c.OfType("sleeping bag")[0]
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"OfType", func() { sink = len(c.OfType("tent")) }},
		{"AppendSharedIntents", func() {
			var buf [8]catalog.Intent
			sink = len(c.AppendSharedIntents(buf[:0], a, b))
		}},
		{"Surface", func() {
			for _, in := range intents {
				sink += len(in.Surface())
			}
		}},
		{"BroadQuery", func() {
			for _, in := range intents {
				sink += len(BroadQuery(in))
			}
		}},
	} {
		if n := testing.AllocsPerRun(100, tc.f); n != 0 {
			t.Errorf("%s: %v allocs, want 0", tc.name, n)
		}
	}
}
