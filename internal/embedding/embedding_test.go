package embedding

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEmbedNormalized(t *testing.T) {
	m := New(64)
	v := m.Embed("camping air mattress")
	n := 0.0
	for _, x := range v {
		n += x * x
	}
	if math.Abs(n-1.0) > 1e-9 {
		t.Errorf("norm^2 = %v, want 1", n)
	}
}

func TestEmbedBlankIsZero(t *testing.T) {
	m := New(32)
	for _, x := range m.Embed("") {
		if x != 0 {
			t.Fatal("blank input should embed to zero vector")
		}
	}
}

func TestEmbedDeterministic(t *testing.T) {
	m := New(128)
	a := m.Embed("used for walking the dog")
	b := m.Embed("used for walking the dog")
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("embedding not deterministic")
		}
	}
}

func TestSimilarityIdentity(t *testing.T) {
	m := New(128)
	if s := m.Similarity("camping tent", "camping tent"); math.Abs(s-1.0) > 1e-9 {
		t.Errorf("self-similarity = %v", s)
	}
}

func TestParaphraseScoresHigherThanUnrelated(t *testing.T) {
	m := New(256)
	// A paraphrase of the behavior context vs. genuinely new knowledge.
	context := "camping air mattress"
	paraphrase := "an air mattress for camping"
	knowledge := "capable of sleeping two adults"
	sp := m.Similarity(context, paraphrase)
	sk := m.Similarity(context, knowledge)
	if sp <= sk {
		t.Errorf("paraphrase sim %.3f should exceed knowledge sim %.3f", sp, sk)
	}
	if sp < 0.5 {
		t.Errorf("paraphrase sim too low: %.3f", sp)
	}
}

func TestMorphologicalRobustness(t *testing.T) {
	m := New(256)
	s := m.Similarity("walking the dog", "walk the dogs")
	if s < 0.6 {
		t.Errorf("inflected forms should stay similar, got %.3f", s)
	}
}

func TestCosineEdgeCases(t *testing.T) {
	if c := Cosine([]float64{1, 0}, []float64{1, 0, 0}); c != 0 {
		t.Error("mismatched lengths should be 0")
	}
	if c := Cosine([]float64{0, 0}, []float64{1, 0}); c != 0 {
		t.Error("zero vector should be 0")
	}
	if c := Cosine([]float64{1, 2}, []float64{1, 2}); math.Abs(c-1) > 1e-12 {
		t.Errorf("identical = %v", c)
	}
	if c := Cosine([]float64{1, 0}, []float64{-1, 0}); math.Abs(c+1) > 1e-12 {
		t.Errorf("opposite = %v", c)
	}
}

func TestCosineBoundedProperty(t *testing.T) {
	clamp := func(v []float64) {
		for i := range v {
			// Keep magnitudes sane; extreme float64s overflow the dot
			// product, which real embeddings (unit norm) never do.
			v[i] = math.Mod(v[i], 1e6)
			if math.IsNaN(v[i]) {
				v[i] = 0
			}
		}
	}
	f := func(a, b []float64) bool {
		if len(a) != len(b) {
			if len(a) > len(b) {
				a = a[:len(b)]
			} else {
				b = b[:len(a)]
			}
		}
		clamp(a)
		clamp(b)
		c := Cosine(a, b)
		return !math.IsNaN(c) && c >= -1.0000001 && c <= 1.0000001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMinDim(t *testing.T) {
	m := New(1)
	if m.Dim() != 8 {
		t.Errorf("dim clamped to %d, want 8", m.Dim())
	}
}

func BenchmarkEmbed(b *testing.B) {
	m := New(256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Embed("customers bought them together because they provide protection for the camera")
	}
}
