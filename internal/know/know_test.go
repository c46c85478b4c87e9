package know

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestKeyDistinguishesTextAndHead(t *testing.T) {
	base := Candidate{Behavior: SearchBuy, Query: "camping", ProductA: "P1", Text: "used for camping"}
	sameHead := base
	sameHead.Text = "capable of sheltering"
	if base.Key() == sameHead.Key() {
		t.Error("different texts must have different keys")
	}
	if base.HeadKey() != sameHead.HeadKey() {
		t.Error("same head must share HeadKey")
	}
	otherHead := base
	otherHead.ProductA = "P2"
	if base.HeadKey() == otherHead.HeadKey() {
		t.Error("different heads must differ")
	}
}

func TestKeyDeterministicProperty(t *testing.T) {
	f := func(q, pa, pb, text string) bool {
		c := Candidate{Behavior: CoBuy, Query: q, ProductA: pa, ProductB: pb, Text: text}
		return c.Key() == c.Key() && c.HeadKey() == c.HeadKey()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestKeyMatchesReference: concatenating the fields gives the string
// the previous fmt.Sprintf keys gave, byte for byte, including fields
// that hold separators, verbs and invalid UTF-8.
func TestKeyMatchesReference(t *testing.T) {
	same := func(c Candidate) bool {
		return c.Key() == fmt.Sprintf("%s|%s|%s|%s|%s", c.Behavior, c.Query, c.ProductA, c.ProductB, c.Text) &&
			c.HeadKey() == fmt.Sprintf("%s|%s|%s|%s", c.Behavior, c.Query, c.ProductA, c.ProductB)
	}
	for _, c := range []Candidate{
		{},
		{Behavior: SearchBuy, Query: "camping", ProductA: "P1", Text: "used for camping"},
		{Behavior: CoBuy, ProductA: "P1|P2", ProductB: "%s%d", Text: "\xff\xfe|%v"},
	} {
		if !same(c) {
			t.Errorf("Key/HeadKey of %+v differ from the fmt.Sprintf reference", c)
		}
	}
	f := func(beh, q, pa, pb, text string) bool {
		return same(Candidate{Behavior: BehaviorType(beh), Query: q, ProductA: pa, ProductB: pb, Text: text})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBehaviorConstants(t *testing.T) {
	if CoBuy == SearchBuy {
		t.Error("behavior types must differ")
	}
	if string(CoBuy) != "co-buy" || string(SearchBuy) != "search-buy" {
		t.Error("behavior surface forms changed; serialized data depends on them")
	}
}
