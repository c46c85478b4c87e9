package filter

import (
	"strings"
	"testing"
	"testing/quick"

	"cosmo/internal/know"
	"cosmo/internal/llm"
	"cosmo/internal/textproc"
)

// TestFilterNeverPanicsOnArbitraryText injects arbitrary (including
// malformed unicode) candidate text and asserts the filter survives and
// accounts for every candidate.
func TestFilterNeverPanicsOnArbitraryText(t *testing.T) {
	f := func(texts []string) bool {
		cands := make([]know.Candidate, len(texts))
		for i, txt := range texts {
			cands[i] = know.Candidate{
				ID: i, Behavior: know.SearchBuy, Query: "q", ProductA: "P1",
				TypeA: "thing", ContextText: "q thing", Text: txt,
			}
		}
		flt := New(DefaultConfig())
		kept, results, report := flt.Run(textproc.NewVocab(), cands)
		dropped := 0
		for _, n := range report.Dropped {
			dropped += n
		}
		return len(results) == len(cands) && report.Kept+dropped == len(cands) &&
			len(kept) == report.Kept
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFilterHandlesAdversarialCandidates(t *testing.T) {
	adversarial := []know.Candidate{
		{ID: 1, Text: ""},
		{ID: 2, Text: "   \n\t  "},
		{ID: 3, Text: strings.Repeat("used for camping ", 500)}, // huge
		{ID: 4, Text: "used for \x00\x01 control bytes"},
		{ID: 5, Text: "used for 日本語のテキスト"},
		{ID: 6, Text: "USED FOR SHOUTING LOUDLY"},
		{ID: 7, Text: "used for. . . . ellipses. . ."},
		{ID: 8, Query: "q", Text: "q"}, // exact copy of the query
	}
	flt := New(DefaultConfig())
	kept, results, report := flt.Run(textproc.NewVocab(), adversarial)
	if len(results) != len(adversarial) {
		t.Fatalf("results %d", len(results))
	}
	if report.Input != len(adversarial) {
		t.Fatalf("report input %d", report.Input)
	}
	// The empty and whitespace candidates must be dropped.
	for _, r := range results[:2] {
		if r.Kept {
			t.Errorf("blank candidate kept: %+v", r.Candidate)
		}
	}
	_ = kept
}

func TestFilterSingleCandidate(t *testing.T) {
	flt := New(DefaultConfig())
	kept, _, _ := flt.Run(textproc.NewVocab(), []know.Candidate{{
		ID: 1, Behavior: know.SearchBuy, Query: "camping",
		ProductA: "P1", TypeA: "tent", ContextText: "camping Acme tent",
		Text:  "capable of sheltering four people",
		Truth: llm.Truth{Complete: true, Relevant: true, Informative: true, Plausible: true, Typical: true},
	}})
	if len(kept) != 1 {
		t.Errorf("well-formed single candidate dropped (kept=%d)", len(kept))
	}
}
