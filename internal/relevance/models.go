package relevance

import (
	"hash/fnv"
	"math/rand"

	"cosmo/internal/embedding"
	"cosmo/internal/metrics"
	"cosmo/internal/nn"
	"cosmo/internal/textproc"
)

// Arch selects the relevance model architecture (paper Figure 6).
type Arch int

// Architectures compared in Table 6.
const (
	BiEncoder Arch = iota
	CrossEncoder
	CrossEncoderIntent
)

// String names the architecture.
func (a Arch) String() string {
	switch a {
	case BiEncoder:
		return "Bi-encoder"
	case CrossEncoder:
		return "Cross-encoder"
	case CrossEncoderIntent:
		return "Cross-encoder w/ Intent"
	default:
		return "Arch(?)"
	}
}

// ModelConfig controls training.
type ModelConfig struct {
	Arch Arch
	// Trainable selects the trainable-encoder setting; false freezes the
	// text encoder (paper Table 6's two column groups).
	Trainable bool
	// EmbedDim is the frozen hashed-embedding dimension.
	EmbedDim int
	// EncDim is the trainable encoder output dimension.
	EncDim int
	// Hidden is the classification-head hidden width.
	Hidden int
	Epochs int
	LR     float64
	Seed   int64
}

// DefaultModelConfig returns a laptop-scale configuration.
func DefaultModelConfig(arch Arch, trainable bool) ModelConfig {
	return ModelConfig{
		Arch: arch, Trainable: trainable,
		EmbedDim: 32, EncDim: 64, Hidden: 64,
		Epochs: 8, LR: 0.003, Seed: 7,
	}
}

// Model is a trained relevance classifier.
type Model struct {
	cfg ModelConfig
	emb *embedding.Model
	set nn.Set
	// tok is the trainable token-embedding table (nil when frozen):
	// fine-tuning the encoder lets the model learn task-specific word
	// representations, which the frozen hashed embedding cannot.
	tok *nn.Param
	mlp *nn.MLP
}

// tokBuckets is the hash-bucket count of the trainable token table.
const tokBuckets = 2048

// featureDim returns the classifier input dimension for the arch.
func featureDim(arch Arch, d int) int {
	switch arch {
	case BiEncoder:
		return 2 * d
	case CrossEncoder:
		return 3 * d // q, p, q⊙p
	default:
		return 6 * d // q, p, q⊙p, g, q⊙g, p⊙g
	}
}

// NewModel builds an untrained model.
func NewModel(cfg ModelConfig) *Model {
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{cfg: cfg, emb: embedding.New(cfg.EmbedDim)}
	d := cfg.EmbedDim
	if cfg.Trainable {
		m.tok = m.set.Add(nn.NewParam("tok", tokBuckets, cfg.EncDim).Init(rng))
		d = cfg.EmbedDim + cfg.EncDim
	}
	m.mlp = nn.NewMLP(&m.set, "head", featureDim(cfg.Arch, d), cfg.Hidden, int(NumClasses), rng)
	return m
}

func tokBucket(tok string) int {
	h := fnv.New32a()
	h.Write([]byte(tok)) //cosmo:lint-ignore dropped-error hash.Hash Write never returns an error (hash package contract)
	return int(h.Sum32() % tokBuckets)
}

// encode embeds a text. In the frozen setting it is the fixed hashed
// embedding; in the trainable setting the learned token embeddings
// (mean-pooled) are concatenated, strictly extending the frozen
// representation as fine-tuning a pretrained encoder does.
func (m *Model) encode(t *nn.Tape, text string) *nn.Vec {
	raw := t.Const(m.emb.Embed(text))
	if m.tok == nil {
		return raw
	}
	toks := textproc.ContentStems(text)
	if len(toks) == 0 {
		return t.Concat(raw, t.Const(make([]float64, m.cfg.EncDim)))
	}
	rows := make([]*nn.Vec, len(toks))
	for i, tk := range toks {
		rows[i] = t.UseRow(m.tok, tokBucket(tk))
	}
	return t.Concat(raw, t.Mean(rows))
}

// logits builds the forward pass for one example.
func (m *Model) logits(t *nn.Tape, ex Example) *nn.Vec {
	q := m.encode(t, ex.Query)
	p := m.encode(t, ex.Product)
	var feat *nn.Vec
	switch m.cfg.Arch {
	case BiEncoder:
		feat = t.Concat(q, p)
	case CrossEncoder:
		feat = t.Concat(q, p, t.Mul(q, p))
	default:
		g := m.encode(t, ex.Knowledge)
		feat = t.Concat(q, p, t.Mul(q, p), g, t.Mul(q, g), t.Mul(p, g))
	}
	return m.mlp.Forward(t, feat)
}

// Train fits the model on the examples.
func (m *Model) Train(train []Example) {
	rng := rand.New(rand.NewSource(m.cfg.Seed + 1))
	opt := nn.NewAdam(m.cfg.LR)
	order := rng.Perm(len(train))
	for epoch := 0; epoch < m.cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, idx := range order {
			ex := train[idx]
			t := nn.NewTape()
			loss := t.CrossEntropy(m.logits(t, ex), int(ex.Label))
			t.Backward(loss)
			opt.Step(&m.set)
		}
	}
}

// Predict returns the predicted label for one example.
func (m *Model) Predict(ex Example) Label {
	t := nn.NewTape()
	logits := m.logits(t, ex)
	best, bestV := 0, logits.V[0]
	for i, v := range logits.V {
		if v > bestV {
			best, bestV = i, v
		}
	}
	return Label(best)
}

// Evaluate computes Macro and Micro F1 over the test set.
func (m *Model) Evaluate(test []Example) (macroF1, microF1 float64) {
	conf := metrics.NewConfusion(int(NumClasses))
	for _, ex := range test {
		conf.Add(int(ex.Label), int(m.Predict(ex)))
	}
	return conf.MacroF1(), conf.MicroF1()
}

// TrainAndEvaluate is the convenience entry used by the benchmarks.
func TrainAndEvaluate(cfg ModelConfig, ds Dataset) (macroF1, microF1 float64) {
	m := NewModel(cfg)
	m.Train(ds.Train)
	return m.Evaluate(ds.Test)
}
