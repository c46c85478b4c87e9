package relevance

import (
	"sync"
	"testing"

	"cosmo/internal/catalog"
)

func world() *catalog.Catalog {
	return catalog.Generate(catalog.Config{ProductsPerType: 4, Seed: 1})
}

func smallLocale() Locale {
	return Locale{Name: "test", TrainPairs: 2000, TestPairs: 700, Seed: 11}
}

// oracleDataset is smallLocale generated with oracle knowledge, and
// trainableCrossMacro the trainable cross-encoder's macro F1 on it. Both
// are computed once and shared by the tests that compare against them;
// training never modifies the dataset.
var (
	oracleDataset = sync.OnceValue(func() Dataset {
		cat := world()
		return NewGenerator(cat, OracleKnowledge(cat)).Generate(smallLocale())
	})
	trainableCrossMacro = sync.OnceValue(func() float64 {
		macro, _ := TrainAndEvaluate(DefaultModelConfig(CrossEncoder, true), oracleDataset())
		return macro
	})
)

func TestGenerateDatasetShape(t *testing.T) {
	cat := world()
	g := NewGenerator(cat, OracleKnowledge(cat))
	ds := g.Generate(smallLocale())
	if len(ds.Train) != 2000 || len(ds.Test) != 700 {
		t.Fatalf("split sizes %d/%d", len(ds.Train), len(ds.Test))
	}
	counts := map[Label]int{}
	for _, ex := range append(append([]Example{}, ds.Train...), ds.Test...) {
		counts[ex.Label]++
		if ex.Query == "" || ex.Product == "" {
			t.Fatal("empty fields")
		}
	}
	for l := Exact; l < NumClasses; l++ {
		if counts[l] == 0 {
			t.Errorf("class %s absent", l)
		}
	}
	if counts[Exact] <= counts[Substitute] {
		t.Errorf("class imbalance missing: exact=%d substitute=%d", counts[Exact], counts[Substitute])
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cat := world()
	g := NewGenerator(cat, nil)
	a := g.Generate(smallLocale())
	b := g.Generate(smallLocale())
	for i := range a.Train {
		if a.Train[i] != b.Train[i] {
			t.Fatalf("example %d differs", i)
		}
	}
}

func TestLocalesScaleWithTable5(t *testing.T) {
	locs := Locales(1000)
	if len(locs) != 5 {
		t.Fatalf("got %d locales", len(locs))
	}
	byName := map[string]Locale{}
	for _, l := range locs {
		byName[l.Name] = l
		if l.TrainPairs <= 0 || l.TestPairs <= 0 {
			t.Errorf("locale %s has empty split", l.Name)
		}
	}
	// Size ordering follows Table 5: IN > KDD Cup > US > UK > CA.
	if !(byName["IN"].TrainPairs > byName["KDD Cup"].TrainPairs &&
		byName["KDD Cup"].TrainPairs > byName["US"].TrainPairs &&
		byName["US"].TrainPairs > byName["UK"].TrainPairs &&
		byName["UK"].TrainPairs > byName["CA"].TrainPairs) {
		t.Errorf("locale size ordering wrong: %+v", byName)
	}
}

func TestOracleKnowledgeSignal(t *testing.T) {
	cat := world()
	fn := OracleKnowledge(cat)
	tent := cat.OfType("tent")[0]
	bag := cat.OfType("sleeping bag")[0]
	pen := cat.OfType("fountain pen")[0]
	// Substitute-ish pair: shared camping intent must surface.
	if k := fn("tent", bag); k == "" {
		t.Error("shared-intent pair has no knowledge")
	}
	// Irrelevant pair: no knowledge.
	if k := fn("tent", pen); k != "" {
		t.Errorf("irrelevant pair has knowledge %q", k)
	}
	// Exact: knowledge from intent-word queries.
	if k := fn("camping", tent); k == "" {
		t.Error("broad intent query has no product-side knowledge")
	}
}

func TestIntentKnowledgeBoostsFixedEncoder(t *testing.T) {
	// The Table 6 headline: with a fixed encoder, the intent-augmented
	// cross-encoder beats the plain cross-encoder by a wide margin.
	ds := oracleDataset()

	cross := DefaultModelConfig(CrossEncoder, false)
	intent := DefaultModelConfig(CrossEncoderIntent, false)
	crossMacro, crossMicro := TrainAndEvaluate(cross, ds)
	intentMacro, intentMicro := TrainAndEvaluate(intent, ds)
	t.Logf("fixed: cross macro=%.3f micro=%.3f | +intent macro=%.3f micro=%.3f",
		crossMacro, crossMicro, intentMacro, intentMicro)
	if intentMacro <= crossMacro {
		t.Errorf("intent should boost macro F1: %.3f vs %.3f", intentMacro, crossMacro)
	}
	if intentMicro <= crossMicro {
		t.Errorf("intent should boost micro F1: %.3f vs %.3f", intentMicro, crossMicro)
	}
}

func TestCrossBeatsBiWithTrainableEncoder(t *testing.T) {
	biMacro, _ := TrainAndEvaluate(DefaultModelConfig(BiEncoder, true), oracleDataset())
	crossMacro := trainableCrossMacro()
	t.Logf("trainable: bi macro=%.3f cross macro=%.3f", biMacro, crossMacro)
	if crossMacro <= biMacro {
		t.Errorf("cross-encoder %.3f should beat bi-encoder %.3f", crossMacro, biMacro)
	}
}

func TestTrainableBeatsFixed(t *testing.T) {
	fixedMacro, _ := TrainAndEvaluate(DefaultModelConfig(CrossEncoder, false), oracleDataset())
	trainMacro := trainableCrossMacro()
	t.Logf("cross: fixed=%.3f trainable=%.3f", fixedMacro, trainMacro)
	if trainMacro <= fixedMacro {
		t.Errorf("trainable %.3f should beat fixed %.3f", trainMacro, fixedMacro)
	}
}

func TestComputeStats(t *testing.T) {
	cat := world()
	g := NewGenerator(cat, nil)
	ds := g.Generate(smallLocale())
	s := ComputeStats(ds)
	if s.TrainPairs != 2000 || s.TestPairs != 700 {
		t.Errorf("stats pairs %d/%d", s.TrainPairs, s.TestPairs)
	}
	if s.ExactPairs == 0 || s.ExactPairs >= s.TrainPairs+s.TestPairs {
		t.Errorf("exact pairs = %d", s.ExactPairs)
	}
	if s.UniqueQueries == 0 || s.UniqueProducts == 0 {
		t.Error("unique counts zero")
	}
}

func TestArchString(t *testing.T) {
	if BiEncoder.String() != "Bi-encoder" ||
		CrossEncoder.String() != "Cross-encoder" ||
		CrossEncoderIntent.String() != "Cross-encoder w/ Intent" {
		t.Error("arch names wrong")
	}
	if Exact.String() != "Exact" || Irrelevant.String() != "Irrelevant" {
		t.Error("label names wrong")
	}
}
