package classifier

import (
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"cosmo/internal/behavior"
	"cosmo/internal/catalog"
	"cosmo/internal/know"
	"cosmo/internal/llm"
	"cosmo/internal/relations"
	"cosmo/internal/textproc"
)

// vocabOf returns a vocabulary holding the texts of data.
func vocabOf(data []Labeled) *textproc.Vocab {
	v := textproc.NewVocab()
	for _, d := range data {
		v.Add(d.Candidate.Text, d.Candidate.ContextText)
	}
	return v
}

// features is AppendFeatures over a vocabulary of c's texts alone.
func features(f *Featurizer, c know.Candidate) []int {
	v := textproc.NewVocab()
	v.Add(c.Text, c.ContextText)
	return f.AppendFeatures(nil, v, c)
}

// stemAll stems every token.
func stemAll(tokens []string) []string {
	out := make([]string, len(tokens))
	for i, t := range tokens {
		out[i] = textproc.Stem(t)
	}
	return out
}

// corpus builds a mixed candidate corpus with ground-truth labels.
func corpus(tb testing.TB, n int) []Labeled {
	tb.Helper()
	c := catalog.Generate(catalog.Config{ProductsPerType: 4, Seed: 1})
	log := behavior.Simulate(c, behavior.Config{
		Seed: 3, CoBuyEvents: 6000, SearchEvents: 6000,
		NoiseRate: 0.25, BroadQueryRate: 0.4,
	})
	teach := llm.NewTeacher(c, llm.DefaultConfig(llm.OPT30B))
	var out []Labeled
	id := 0
	for _, e := range log.CoBuys {
		if len(out) >= n {
			break
		}
		pa, _ := c.ByID(e.A)
		pb, _ := c.ByID(e.B)
		for _, g := range teach.GenerateCoBuy(pa, pb, 2) {
			id++
			cd := know.Candidate{
				ID: id, Behavior: know.CoBuy, Domain: pa.Category,
				ProductA: e.A, ProductB: e.B, TypeA: pa.Type, TypeB: pb.Type,
				ContextText: pa.Title + " and " + pb.Title,
				Text:        g.Text, Truth: g.Truth,
			}
			out = append(out, Labeled{Candidate: cd, Plausible: g.Truth.Plausible, Typical: g.Truth.Typical})
		}
	}
	// The raw log is sorted by product ID, which follows type order; an
	// unshuffled split would sever whole categories from training.
	rng := rand.New(rand.NewSource(99))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func TestCriticSeparatesTypicality(t *testing.T) {
	data := corpus(t, 4000)
	split := len(data) * 4 / 5
	critic := TrainCritic(1<<15, vocabOf(data[:split]), data[:split], DefaultTrainConfig())
	plauAcc, typAcc, plauAUC, typAUC := critic.Evaluate(vocabOf(data[split:]), data[split:])
	if typAcc < 0.90 {
		t.Errorf("typicality accuracy %.3f too low", typAcc)
	}
	if typAUC < 0.90 {
		t.Errorf("typicality AUC %.3f too low", typAUC)
	}
	if plauAcc < 0.85 {
		t.Errorf("plausibility accuracy %.3f too low", plauAcc)
	}
	if plauAUC < 0.85 {
		t.Errorf("plausibility AUC %.3f too low", plauAUC)
	}
}

func TestCriticHighScorePrecision(t *testing.T) {
	// The pipeline consumes the typicality head by thresholding high:
	// candidates scored in the top quintile must be typical far more
	// often than the base rate.
	data := corpus(t, 4000)
	split := len(data) * 4 / 5
	critic := TrainCritic(1<<15, vocabOf(data[:split]), data[:split], DefaultTrainConfig())
	test := data[split:]
	type scored struct {
		s float64
		y bool
	}
	ss := make([]scored, len(test))
	base := 0
	for i, d := range test {
		ss[i] = scored{critic.Typical.Prob(features(critic.Feat, d.Candidate)), d.Typical}
		if d.Typical {
			base++
		}
	}
	baseRate := float64(base) / float64(len(test))
	sort.Slice(ss, func(i, j int) bool { return ss[i].s > ss[j].s })
	top := ss[:len(ss)/5]
	hits := 0
	for _, s := range top {
		if s.y {
			hits++
		}
	}
	prec := float64(hits) / float64(len(top))
	if prec < baseRate+0.15 {
		t.Errorf("top-quintile precision %.3f not well above base rate %.3f", prec, baseRate)
	}
}

func TestScoreFillsFields(t *testing.T) {
	data := corpus(t, 1000)
	critic := TrainCritic(1<<12, vocabOf(data), data, DefaultTrainConfig())
	cands := make([]know.Candidate, len(data))
	for i, d := range data {
		cands[i] = d.Candidate
	}
	scored := critic.Score(vocabOf(data), cands, 1)
	if len(scored) != len(cands) {
		t.Fatalf("scored %d of %d", len(scored), len(cands))
	}
	for _, c := range scored {
		if c.PlausibleScore < 0 || c.PlausibleScore > 1 {
			t.Fatalf("plausible score %v out of range", c.PlausibleScore)
		}
		if c.TypicalScore < 0 || c.TypicalScore > 1 {
			t.Fatalf("typical score %v out of range", c.TypicalScore)
		}
	}
}

func TestLogRegLearnsSeparableData(t *testing.T) {
	// Feature 0 present => positive; feature 1 present => negative.
	X := [][]int{}
	y := []bool{}
	for i := 0; i < 200; i++ {
		X = append(X, []int{0, 2})
		y = append(y, true)
		X = append(X, []int{1, 3})
		y = append(y, false)
	}
	m := TrainLogReg(8, X, y, DefaultTrainConfig())
	if p := m.Prob([]int{0, 2}); p < 0.9 {
		t.Errorf("positive prob %.3f", p)
	}
	if p := m.Prob([]int{1, 3}); p > 0.1 {
		t.Errorf("negative prob %.3f", p)
	}
}

func TestLogRegEmptyTraining(t *testing.T) {
	m := TrainLogReg(16, nil, nil, DefaultTrainConfig())
	if p := m.Prob([]int{1, 2}); p != 0.5 {
		t.Errorf("untrained model prob %v, want 0.5", p)
	}
}

func TestLogRegIgnoresOutOfRangeIndices(t *testing.T) {
	m := &LogReg{W: make([]float64, 4)}
	if p := m.Prob([]int{-1, 100}); p != 0.5 {
		t.Errorf("out-of-range prob %v", p)
	}
}

func TestAUCPerfectAndRandom(t *testing.T) {
	perfect := AUC([]float64{0.1, 0.2, 0.8, 0.9}, []bool{false, false, true, true})
	if perfect != 1.0 {
		t.Errorf("perfect AUC = %v", perfect)
	}
	inverted := AUC([]float64{0.9, 0.8, 0.2, 0.1}, []bool{false, false, true, true})
	if inverted != 0.0 {
		t.Errorf("inverted AUC = %v", inverted)
	}
	ties := AUC([]float64{0.5, 0.5, 0.5, 0.5}, []bool{false, true, false, true})
	if math.Abs(ties-0.5) > 1e-12 {
		t.Errorf("all-tied AUC = %v", ties)
	}
	oneClass := AUC([]float64{0.3, 0.7}, []bool{true, true})
	if oneClass != 0.5 {
		t.Errorf("single-class AUC = %v", oneClass)
	}
}

func TestFeaturizerDeterministic(t *testing.T) {
	f := NewFeaturizer(1 << 10)
	c := know.Candidate{Text: "capable of holding snacks", Behavior: know.CoBuy}
	a := features(f, c)
	b := features(f, c)
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("features not deterministic")
		}
	}
	for _, j := range a {
		if j < 0 || j >= f.Dim() {
			t.Fatalf("index %d out of range", j)
		}
	}
}

func TestFeaturizerMinDim(t *testing.T) {
	f := NewFeaturizer(2)
	if f.Dim() != 64 {
		t.Errorf("dim = %d, want 64 floor", f.Dim())
	}
}

func TestCriticDeterministic(t *testing.T) {
	data := corpus(t, 600)
	c1 := TrainCritic(1<<10, vocabOf(data), data, DefaultTrainConfig())
	c2 := TrainCritic(1<<10, vocabOf(data), data, DefaultTrainConfig())
	for i := range c1.Plausible.W {
		if c1.Plausible.W[i] != c2.Plausible.W[i] {
			t.Fatal("training not deterministic")
		}
	}
}

func BenchmarkCriticScore(b *testing.B) {
	data := corpus(b, 1000)
	critic := TrainCritic(1<<12, vocabOf(data), data, DefaultTrainConfig())
	cands := make([]know.Candidate, len(data))
	for i, d := range data {
		cands[i] = d.Candidate
	}
	v := vocabOf(data)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		critic.Score(v, cands, 1)
	}
}

// refHash is the previous feature hash: hash/fnv's FNV-1a over the
// concatenated feature string.
func refHash(f *Featurizer, s string) int {
	h := fnv.New32a()
	h.Write([]byte(s))
	return int(h.Sum32() % uint32(f.Dim()))
}

// refFeatures is the previous Features, kept as the oracle: it built
// every feature string and ran hash/fnv over it, and tokenized Text once
// for its n-grams and again, with ContextText, inside TokenOverlap.
func refFeatures(f *Featurizer, c know.Candidate) []int {
	var idx []int
	toks := stemAll(textproc.Tokenize(c.Text))
	for i, t := range toks {
		idx = append(idx, refHash(f, "w:"+t))
		if i+1 < len(toks) {
			idx = append(idx, refHash(f, "b:"+t+"_"+toks[i+1]))
		}
	}
	idx = append(idx,
		refHash(f, "rel:"+string(c.Relation)),
		refHash(f, "beh:"+string(c.Behavior)),
		refHash(f, "dom:"+string(c.Domain)),
		refHash(f, "len:"+lengthBucket(len(toks))),
	)
	overlap := textproc.TokenOverlap(c.Text, c.ContextText)
	idx = append(idx, refHash(f, "ovl:"+overlapBucket(overlap)))
	content := toks
	if len(content) > 4 {
		content = content[:4]
	}
	for _, t := range content {
		if textproc.IsStopword(t) {
			continue
		}
		if c.TypeA != "" {
			idx = append(idx, refHash(f, "x:"+t+"|"+c.TypeA))
		}
		if c.TypeB != "" {
			idx = append(idx, refHash(f, "x:"+t+"|"+c.TypeB))
		}
	}
	ta, tb := c.TypeA, c.TypeB
	if ta > tb {
		ta, tb = tb, ta
	}
	idx = append(idx, refHash(f, "t3:"+strings.Join(toks, " ")+"|"+ta+"|"+tb))
	return idx
}

// TestFeaturesMatchReference: hashing from prefix states, with one
// tokenization, gives the indices the string-building hash/fnv
// featurizer gave — for both behaviors, with and without types, query
// and context, and at a dimension that is not a power of two.
func TestFeaturesMatchReference(t *testing.T) {
	cands := []know.Candidate{
		{}, {Text: "the of"}, {Text: "Used For Walking the Dogs", ContextText: "dog leash and walking harness"},
		{Text: "capable of providing protection", ContextText: "camera case", TypeA: "camera", TypeB: "case"},
		{Behavior: know.CoBuy, Domain: catalog.Electronics, Text: "used with the case", TypeA: "phone"},
		{Behavior: know.CoBuy, Text: "used for camping", TypeB: "tent", Relation: relations.UsedForFunc, Tail: "camping"},
		{Behavior: know.SearchBuy, Domain: catalog.Sports, Query: "camping", ProductA: "P000001", TypeA: "air mattress",
			ContextText: "camping Acme Air Mattress", Text: "used for camping in the mountains", Relation: relations.UsedForEve},
		{Behavior: know.SearchBuy, Query: "camping", Text: "capable of keeping warm"},
		{Behavior: know.SearchBuy, ContextText: "winter boots", Text: "Used for hiking. In snow!"},
	}
	for _, d := range corpus(t, 400) {
		cands = append(cands, d.Candidate)
	}
	for _, dim := range []int{1 << 15, 1000} {
		f := NewFeaturizer(dim)
		for _, c := range cands {
			if got, want := features(f, c), refFeatures(f, c); !reflect.DeepEqual(got, want) {
				t.Fatalf("dim %d: Features(%q | %q) = %v, reference %v", dim, c.Text, c.ContextText, got, want)
			}
		}
	}
}

// TestAppendFeaturesAllocBudget: with the featurizer's scratch warm and
// room in dst, featurizing a candidate allocates nothing, whatever the
// case of its context: the vocabulary lowered and stemmed its texts
// once, when they were added.
func TestAppendFeaturesAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	f := NewFeaturizer(1 << 10)
	c := know.Candidate{
		Text:     "capable of holding snacks for the long hikes",
		Relation: relations.CapableOf, Behavior: know.CoBuy, Domain: catalog.Sports,
		TypeA: "snack box", TypeB: "backpack",
	}
	dst := make([]int, 0, 64)
	for _, context := range []string{"trail snack box and hiking backpack", "Trail Snack Box and Hiking Backpack"} {
		c.ContextText = context
		v := textproc.NewVocab()
		v.Add(c.Text, c.ContextText)
		f.AppendFeatures(dst, v, c)
		if got := testing.AllocsPerRun(100, func() { f.AppendFeatures(dst[:0], v, c) }); got != 0 {
			t.Errorf("context %q: %v allocs, want 0", context, got)
		}
	}
}

// TestScoreParallelMatchesSerial: every worker count scores each
// candidate with the two heads over its features, the sequential
// definition.
func TestScoreParallelMatchesSerial(t *testing.T) {
	data := corpus(t, 600)
	v := vocabOf(data)
	critic := TrainCritic(1<<10, v, data, DefaultTrainConfig())
	cands := make([]know.Candidate, len(data))
	for i, d := range data {
		cands[i] = d.Candidate
	}
	want := make([]know.Candidate, len(cands))
	for i, cd := range cands {
		x := features(critic.Feat, cd)
		cd.PlausibleScore, cd.TypicalScore = critic.Plausible.Prob(x), critic.Typical.Prob(x)
		want[i] = cd
	}
	for _, workers := range []int{0, 1, 2, 3, 8, 64} {
		for _, n := range []int{0, 1, 7, len(cands)} {
			if got := critic.Score(v, cands[:n], workers); !reflect.DeepEqual(got, want[:n]) {
				t.Fatalf("workers %d, %d candidates: scores differ from features + Prob", workers, n)
			}
		}
	}
}
