package relations

import (
	"sort"
	"strings"

	"cosmo/internal/textproc"
)

// PredicatePattern is a frequent surface pattern mined from generations,
// e.g. "used for", together with its count and the canonical relation it
// was manually mapped to during taxonomy construction.
type PredicatePattern struct {
	Prefix    string
	Count     int
	Canonical Relation
}

// prefixTable maps surface predicate prefixes to canonical relations.
// The USED_FOR_* split is resolved by tail-type classification (see
// ClassifyTail); at the pattern level all "used for" generations share
// the same prefix, exactly as in the paper's observation that "the
// product is capable of being used [Prep]" with different prepositions
// yields different tail types.
var prefixTable = []struct {
	prefix string
	rel    Relation
}{
	{"capable of being used as", UsedAs},
	{"capable of being used in", UsedInLoc},
	{"capable of being used on", UsedOn},
	{"capable of being used with", UsedWith},
	{"capable of being used by", UsedBy},
	{"capable of being used for", UsedForFunc},
	{"capable of being used to", UsedTo},
	{"capable of", CapableOf},
	{"used for", UsedForFunc},
	{"used to", UsedTo},
	{"used as", UsedAs},
	{"used on", UsedOn},
	{"used in", UsedInLoc},
	{"used with", UsedWith},
	{"used by", UsedBy},
	{"is a", IsA},
	{"is an", IsA},
	{"interested in", XInterestdIn},
	{"wants to", XWant},
	{"want to", XWant},
	{"is", XIsA}, // bare "is <audience>", e.g. "is pregnant women"
}

// ParseGeneration splits a generated knowledge string into its canonical
// relation and tail, e.g. "capable of holding snacks" →
// (CAPABLE_OF, "holding snacks"). The boolean reports whether any known
// predicate prefix matched.
func ParseGeneration(s string) (Relation, string, bool) {
	t := strings.ToLower(strings.TrimSpace(s))
	t = strings.TrimSuffix(t, ".")
	for _, e := range prefixTable {
		if strings.HasPrefix(t, e.prefix+" ") {
			tail := strings.TrimSpace(t[len(e.prefix):])
			if tail == "" {
				return "", "", false
			}
			return refineRelation(e.rel, tail), tail, true
		}
	}
	return "", "", false
}

// refineRelation splits the coarse "used for" bucket into the three
// USED_FOR_* relations by classifying the tail, and maps body-part tails
// of USED_ON to USED_IN_BODY, mirroring the manual canonicalization step.
func refineRelation(r Relation, tail string) Relation {
	switch r {
	case UsedForFunc:
		switch ClassifyTail(tail) {
		case TailAudience:
			return UsedForAud
		case TailEvent, TailActivity:
			return UsedForEve
		}
		return UsedForFunc
	case UsedOn:
		if ClassifyTail(tail) == TailBodyPart {
			return UsedInBody
		}
		return UsedOn
	case XIsA:
		// Bare "is X" is xIs_A only when X names an audience; otherwise
		// it is a plain concept statement.
		if ClassifyTail(tail) == TailAudience {
			return XIsA
		}
		return IsA
	default:
		return r
	}
}

var audienceWords = map[string]bool{
	"owner": true, "owners": true, "worker": true, "workers": true,
	"women": true, "men": true, "kids": true, "children": true,
	"adults": true, "baby": true, "babies": true, "teacher": true,
	"teachers": true, "nurse": true, "nurses": true, "athletes": true,
	"beginners": true, "professionals": true, "seniors": true,
	"students": true, "travelers": true, "gamers": true, "parents": true,
	"musicians": true, "hikers": true, "campers": true, "runners": true,
	"chefs": true, "mechanics": true, "fans": true,
}

var bodyParts = map[string]bool{
	"skin": true, "face": true, "hair": true, "hands": true, "hand": true,
	"feet": true, "foot": true, "eyes": true, "eye": true, "back": true,
	"neck": true, "knees": true, "knee": true, "scalp": true, "teeth": true,
	"nails": true, "lips": true, "wrist": true, "ears": true, "legs": true,
}

var eventVerbs = map[string]bool{
	"walk": true, "walking": true, "attend": true, "attending": true,
	"play": true, "playing": true, "go": true, "going": true,
	"run": true, "running": true, "hike": true, "hiking": true,
	"camp": true, "camping": true, "travel": true, "traveling": true,
	"cook": true, "cooking": true, "party": true, "exercise": true,
	"swim": true, "swimming": true, "bike": true, "biking": true,
	"fish": true, "fishing": true, "garden": true, "gardening": true,
	"celebrate": true, "celebrating": true, "wedding": true,
}

// ClassifyTail assigns a coarse tail type to a tail string using keyword
// heuristics; this implements the "tail types can be further canonicalized"
// step of the paper's relation-discovery procedure.
func ClassifyTail(tail string) TailType {
	lower := strings.ToLower(tail)
	first, rest := textproc.CutField(lower)
	if first == "" {
		return TailConcept
	}
	// A body-part word anywhere wins, then an audience word, then an
	// event verb; the words are read in place.
	audience, event := false, false
	for w := first; w != ""; w, rest = textproc.CutField(rest) {
		if bodyParts[w] {
			return TailBodyPart
		}
		audience = audience || audienceWords[w]
		event = event || eventVerbs[w]
	}
	switch {
	case audience:
		return TailAudience
	case event:
		return TailEvent
	}
	return TailFunction
}

// MinePatterns counts predicate prefixes across raw generations and
// returns patterns with count >= minSupport, most frequent first. This is
// the "mine the frequent predicate patterns to manually summarize the
// relations" step; the Canonical field carries the manual mapping.
func MinePatterns(generations []string, minSupport int) []PredicatePattern {
	counts := map[string]int{}
	for _, g := range generations {
		t := strings.ToLower(strings.TrimSpace(g))
		for _, e := range prefixTable {
			if strings.HasPrefix(t, e.prefix+" ") {
				counts[e.prefix]++
				break
			}
		}
	}
	var out []PredicatePattern
	for _, e := range prefixTable {
		if c := counts[e.prefix]; c >= minSupport {
			out = append(out, PredicatePattern{Prefix: e.prefix, Count: c, Canonical: e.rel})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Prefix < out[j].Prefix
	})
	return out
}

// DiscoverTaxonomy runs pattern mining and returns the set of distinct
// canonical relations with support, in descending frequency order —
// the data-driven taxonomy the paper reports in Table 2.
func DiscoverTaxonomy(generations []string, minSupport int) []Relation {
	seen := map[Relation]int{}
	for _, g := range generations {
		if r, _, ok := ParseGeneration(g); ok {
			seen[r]++
		}
	}
	var rels []Relation
	for r, c := range seen {
		if c >= minSupport {
			rels = append(rels, r)
		}
	}
	sort.Slice(rels, func(i, j int) bool {
		if seen[rels[i]] != seen[rels[j]] {
			return seen[rels[i]] > seen[rels[j]]
		}
		return rels[i] < rels[j]
	})
	return rels
}
