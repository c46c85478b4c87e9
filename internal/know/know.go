// Package know defines the knowledge-candidate record that flows through
// the COSMO pipeline stages: generation → coarse filtering → annotation →
// critic scoring → knowledge-graph assembly.
package know

import (
	"cosmo/internal/catalog"
	"cosmo/internal/llm"
	"cosmo/internal/relations"
)

// BehaviorType distinguishes the two user-behavior sources.
type BehaviorType string

// The two behavior types of the paper.
const (
	CoBuy     BehaviorType = "co-buy"
	SearchBuy BehaviorType = "search-buy"
)

// Candidate is one knowledge candidate: a generation for one behavior.
type Candidate struct {
	ID       int
	Behavior BehaviorType
	Domain   catalog.Category

	// Head context. For search-buy, Query and ProductA are set; for
	// co-buy, ProductA and ProductB are set.
	Query              string
	ProductA, ProductB string
	// ContextText is the verbalized behavior (query + title, or both
	// titles) used by the similarity filter.
	ContextText string
	// TypeA and TypeB carry the product-type labels for rule filtering.
	TypeA, TypeB string

	// Raw generated text from the teacher.
	Text string
	// Parsed triple fields (filled by the coarse filter).
	Relation relations.Relation
	Tail     string

	// Truth is the simulator's hidden ground truth; only the annotation
	// oracle and evaluation code may read it.
	Truth llm.Truth
	// PairIntentional is pair-level ground truth: whether the behavior
	// itself was intentional (vs. a random/noise pair). Oracle-only.
	PairIntentional bool

	// Critic scores populated after classifier scoring.
	PlausibleScore float64
	TypicalScore   float64
}

// Key identifies a candidate's (head, text) combination for dedup and
// co-occurrence statistics.
func (c Candidate) Key() string {
	return string(c.Behavior) + "|" + c.Query + "|" + c.ProductA + "|" + c.ProductB + "|" + c.Text
}

// HeadKey identifies the behavior head (the pair), ignoring the text.
func (c Candidate) HeadKey() string {
	return string(c.Behavior) + "|" + c.Query + "|" + c.ProductA + "|" + c.ProductB
}
