// Package relations defines the COSMO knowledge-relation taxonomy
// (Table 2 of the paper) and the data-driven relation-discovery procedure
// that mined it: starting from four seed relations, frequent predicate
// patterns in large-scale LLM generations are mined and canonicalized
// into 15 e-commerce commonsense relations with typed tails.
package relations

import "strings"

// Relation is one of the 15 mined COSMO relation types.
type Relation string

// The COSMO relation taxonomy (paper Table 2).
const (
	UsedForFunc  Relation = "USED_FOR_FUNC" // Function / Usage: "dry face"
	UsedForEve   Relation = "USED_FOR_EVE"  // Event / Activity: "walk the dog"
	UsedForAud   Relation = "USED_FOR_AUD"  // Audience: "daycare worker"
	CapableOf    Relation = "CAPABLE_OF"    // Function / Usage: "hold snacks"
	UsedTo       Relation = "USED_TO"       // Function / Usage: "build a fence"
	UsedAs       Relation = "USED_AS"       // Concept / Product Type: "smart watch"
	IsA          Relation = "IS_A"          // Concept / Product Type: "normal suit"
	UsedOn       Relation = "USED_ON"       // Time / Season / Event: "late winter"
	UsedInLoc    Relation = "USED_IN_LOC"   // Location / Facility: "bedroom"
	UsedInBody   Relation = "USED_IN_BODY"  // Body Part: "sensitive skin"
	UsedWith     Relation = "USED_WITH"     // Complementary: "surface cover"
	UsedBy       Relation = "USED_BY"       // Audience: "cat owner"
	XInterestdIn Relation = "xIntersted_in" // Interest: "herbal medicine"
	XIsA         Relation = "xIs_A"         // Audience: "pregnant women"
	XWant        Relation = "xWant"         // Activity: "play tennis"
)

// TailType categorizes the tail node of a relation (paper Table 2).
type TailType string

// Tail types from the paper's Table 2.
const (
	TailFunction   TailType = "Function / Usage"
	TailEvent      TailType = "Event / Activity"
	TailAudience   TailType = "Audience"
	TailConcept    TailType = "Concept / Product Type"
	TailTime       TailType = "Time / Season / Event"
	TailLocation   TailType = "Location / Facility"
	TailBodyPart   TailType = "Body Part"
	TailComplement TailType = "Complementary"
	TailInterest   TailType = "Interest"
	TailActivity   TailType = "Activity"
)

// Info describes one relation: its tail type, a canonical surface pattern
// used in prompts and verbalization, and an example tail from the paper.
type Info struct {
	Relation Relation
	Tail     TailType
	// Pattern is the predicate surface form ending in %s, the tail slot.
	Pattern string
	Example string
	// Seed reports whether this was one of the four seed relations
	// (usedFor, capableOf, isA, cause lineage) used to bootstrap mining.
	Seed bool
}

// registry holds the full taxonomy in the paper's Table 2 order.
var registry = []Info{
	{UsedForFunc, TailFunction, "used for %s", "dry face", true},
	{UsedForEve, TailEvent, "used for %s", "walk the dog", true},
	{UsedForAud, TailAudience, "used for %s", "daycare worker", true},
	{CapableOf, TailFunction, "capable of %s", "hold snacks", true},
	{UsedTo, TailFunction, "used to %s", "build a fence", false},
	{UsedAs, TailConcept, "used as %s", "smart watch", false},
	{IsA, TailConcept, "is a %s", "normal suit", true},
	{UsedOn, TailTime, "used on %s", "late winter", false},
	{UsedInLoc, TailLocation, "used in %s", "bedroom", false},
	{UsedInBody, TailBodyPart, "used on %s", "sensitive skin", false},
	{UsedWith, TailComplement, "used with %s", "surface cover", false},
	{UsedBy, TailAudience, "used by %s", "cat owner", false},
	{XInterestdIn, TailInterest, "interested in %s", "herbal medicine", false},
	{XIsA, TailAudience, "is %s", "pregnant women", false},
	{XWant, TailActivity, "wants to %s", "play tennis", false},
}

var byName = func() map[Relation]Info {
	m := make(map[Relation]Info, len(registry))
	for _, info := range registry {
		m[info.Relation] = info
	}
	return m
}()

// All returns all 15 relations in taxonomy order.
func All() []Relation {
	out := make([]Relation, len(registry))
	for i, info := range registry {
		out[i] = info.Relation
	}
	return out
}

// Lookup returns the Info for r and whether r is known.
func Lookup(r Relation) (Info, bool) {
	info, ok := byName[r]
	return info, ok
}

// TailTypeOf returns the tail type for r, or "" if unknown.
func TailTypeOf(r Relation) TailType { return byName[r].Tail }

// Seeds returns the seed relations that bootstrap relation mining.
func Seeds() []Relation {
	var out []Relation
	for _, info := range registry {
		if info.Seed {
			out = append(out, info.Relation)
		}
	}
	return out
}

// Verbalize renders the triple surface form for relation r with tail t,
// e.g. Verbalize(CapableOf, "holding snacks") = "capable of holding snacks".
func Verbalize(r Relation, tail string) string {
	info, ok := byName[r]
	if !ok {
		return tail
	}
	return strings.TrimSuffix(info.Pattern, "%s") + tail
}

// Count returns the number of relation types (15 in the paper).
func Count() int { return len(registry) }

// Valid reports whether r is a known relation.
func Valid(r Relation) bool { _, ok := byName[r]; return ok }
