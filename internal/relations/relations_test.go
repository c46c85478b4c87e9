package relations

import (
	"fmt"
	"strings"
	"testing"
)

func TestAllFifteenRelations(t *testing.T) {
	if Count() != 15 {
		t.Fatalf("taxonomy has %d relations, paper Table 2 has 15", Count())
	}
	if len(All()) != 15 {
		t.Fatalf("All() returned %d", len(All()))
	}
	seen := map[Relation]bool{}
	for _, r := range All() {
		if seen[r] {
			t.Errorf("duplicate relation %s", r)
		}
		seen[r] = true
		if !Valid(r) {
			t.Errorf("relation %s not valid via Valid()", r)
		}
	}
}

func TestLookup(t *testing.T) {
	info, ok := Lookup(CapableOf)
	if !ok {
		t.Fatal("CapableOf not found")
	}
	if info.Tail != TailFunction {
		t.Errorf("CapableOf tail = %s", info.Tail)
	}
	if info.Example != "hold snacks" {
		t.Errorf("CapableOf example = %q", info.Example)
	}
	if _, ok := Lookup(Relation("NOPE")); ok {
		t.Error("unknown relation should not be found")
	}
}

func TestSeedsAreFour(t *testing.T) {
	// The paper starts from four seed relations (usedFor split into the
	// three USED_FOR_* plus capableOf and isA lineage). Our registry
	// marks the usedFor family, capableOf and isA as seeds.
	seeds := Seeds()
	if len(seeds) == 0 {
		t.Fatal("no seeds")
	}
	for _, s := range seeds {
		if !Valid(s) {
			t.Errorf("seed %s invalid", s)
		}
	}
}

func TestVerbalize(t *testing.T) {
	cases := []struct {
		r    Relation
		tail string
		want string
	}{
		{CapableOf, "holding snacks", "capable of holding snacks"},
		{UsedForEve, "walk the dog", "used for walk the dog"},
		{IsA, "normal suit", "is a normal suit"},
		{UsedBy, "cat owner", "used by cat owner"},
		{XWant, "play tennis", "wants to play tennis"},
	}
	for _, c := range cases {
		if got := Verbalize(c.r, c.tail); got != c.want {
			t.Errorf("Verbalize(%s,%q) = %q, want %q", c.r, c.tail, got, c.want)
		}
	}
	// Unknown relation falls back to the tail.
	if got := Verbalize(Relation("X"), "tail"); got != "tail" {
		t.Errorf("unknown relation verbalize = %q", got)
	}
}

func TestParseGeneration(t *testing.T) {
	cases := []struct {
		in       string
		wantRel  Relation
		wantTail string
	}{
		{"capable of holding snacks", CapableOf, "holding snacks"},
		{"used to build a fence", UsedTo, "build a fence"},
		{"used with surface cover", UsedWith, "surface cover"},
		{"used by cat owner", UsedBy, "cat owner"},
		{"is a smart watch", IsA, "smart watch"},
		{"Used For peeling potatoes.", UsedForFunc, "peeling potatoes"},
		{"used for walking the dog", UsedForEve, "walking the dog"},
		{"used for daycare worker", UsedForAud, "daycare worker"},
		{"used on sensitive skin", UsedInBody, "sensitive skin"},
		{"used on late winter", UsedOn, "late winter"},
		{"interested in herbal medicine", XInterestdIn, "herbal medicine"},
		{"wants to play tennis", XWant, "play tennis"},
		{"capable of being used in the bedroom", UsedInLoc, "the bedroom"},
	}
	for _, c := range cases {
		rel, tail, ok := ParseGeneration(c.in)
		if !ok {
			t.Errorf("ParseGeneration(%q) failed", c.in)
			continue
		}
		if rel != c.wantRel || tail != c.wantTail {
			t.Errorf("ParseGeneration(%q) = (%s,%q), want (%s,%q)",
				c.in, rel, tail, c.wantRel, c.wantTail)
		}
	}
}

func TestParseGenerationRejects(t *testing.T) {
	for _, s := range []string{"", "totally unrelated text", "used for", "capable of "} {
		if _, _, ok := ParseGeneration(s); ok {
			t.Errorf("ParseGeneration(%q) should fail", s)
		}
	}
}

func TestClassifyTail(t *testing.T) {
	cases := []struct {
		tail string
		want TailType
	}{
		{"daycare worker", TailAudience},
		{"cat owner", TailAudience},
		{"sensitive skin", TailBodyPart},
		{"walking the dog", TailEvent},
		{"attend a wedding", TailEvent},
		{"holding snacks", TailFunction},
		{"", TailConcept},
	}
	for _, c := range cases {
		if got := ClassifyTail(c.tail); got != c.want {
			t.Errorf("ClassifyTail(%q) = %s, want %s", c.tail, got, c.want)
		}
	}
}

func TestMinePatterns(t *testing.T) {
	gens := []string{
		"used for hiking", "used for biking", "used for camping",
		"capable of holding snacks", "capable of keeping warm",
		"used with a tripod",
		"random noise text",
	}
	pats := MinePatterns(gens, 2)
	if len(pats) != 2 {
		t.Fatalf("got %d patterns: %v", len(pats), pats)
	}
	if pats[0].Prefix != "used for" || pats[0].Count != 3 {
		t.Errorf("top pattern = %+v", pats[0])
	}
	if pats[1].Prefix != "capable of" || pats[1].Count != 2 {
		t.Errorf("second pattern = %+v", pats[1])
	}
}

func TestDiscoverTaxonomy(t *testing.T) {
	var gens []string
	for _, r := range All() {
		info, _ := Lookup(r)
		for i := 0; i < 3; i++ {
			gens = append(gens, Verbalize(r, info.Example))
		}
	}
	rels := DiscoverTaxonomy(gens, 2)
	found := map[Relation]bool{}
	for _, r := range rels {
		found[r] = true
	}
	// Every relation should be rediscovered from its own example surface
	// forms (a round-trip property of the taxonomy).
	for _, r := range All() {
		if !found[r] {
			info, _ := Lookup(r)
			t.Errorf("relation %s not rediscovered (example %q)", r,
				Verbalize(r, info.Example))
		}
	}
}

func TestVerbalizeParseRoundTrip(t *testing.T) {
	// For each relation, Verbalize followed by ParseGeneration recovers a
	// relation with the same tail type (the relation itself may refine).
	for _, r := range All() {
		info, _ := Lookup(r)
		surface := Verbalize(r, info.Example)
		rel, tail, ok := ParseGeneration(surface)
		if !ok {
			t.Errorf("round trip failed for %s: %q", r, surface)
			continue
		}
		if !strings.Contains(surface, tail) {
			t.Errorf("tail %q not in surface %q", tail, surface)
		}
		if TailTypeOf(rel) == "" {
			t.Errorf("parsed relation %s has no tail type", rel)
		}
	}
}

// TestVerbalizeMatchesSprintf holds Verbalize to what it was before it
// concatenated: fmt.Sprintf of the pattern, for every relation and for
// tails that would be verbs or escapes to fmt.
func TestVerbalizeMatchesSprintf(t *testing.T) {
	tails := []string{"", "holding snacks", "100% cotton", "%s", "%d %v", "日本 tea", "a\nb"}
	for _, r := range append(All(), Relation("NOT_A_RELATION")) {
		for _, tail := range tails {
			want := tail
			if info, ok := Lookup(r); ok {
				want = fmt.Sprintf(info.Pattern, tail)
			}
			if got := Verbalize(r, tail); got != want {
				t.Errorf("Verbalize(%s, %q) = %q, Sprintf gives %q", r, tail, got, want)
			}
		}
	}
}
