package nn

import (
	"math"
	"math/rand"
	"testing"
)

// numericGrad estimates dLoss/dp.V[i] by central differences.
func numericGrad(p *Param, i int, loss func() float64) float64 {
	const eps = 1e-5
	orig := p.V[i]
	p.V[i] = orig + eps
	up := loss()
	p.V[i] = orig - eps
	down := loss()
	p.V[i] = orig
	return (up - down) / (2 * eps)
}

func TestMatVecGradcheck(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := NewParam("w", 3, 4).Init(rng)
	x := []float64{0.5, -0.2, 0.3, 0.9}
	loss := func() float64 {
		tape := NewTape()
		xv := tape.Const(x)
		out := tape.MatVec(w, xv)
		l := tape.Dot(out, out)
		return l.V[0]
	}
	tape := NewTape()
	xv := tape.Const(x)
	out := tape.MatVec(w, xv)
	l := tape.Dot(out, out)
	tape.Backward(l)
	for i := range w.V {
		want := numericGrad(w, i, loss)
		if math.Abs(w.G[i]-want) > 1e-6 {
			t.Fatalf("grad[%d] = %v, numeric %v", i, w.G[i], want)
		}
	}
}

func TestElementwiseGradcheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := NewParam("p", 5, 1).Init(rng)
	build := func(tape *Tape) *Vec {
		x := tape.Use(p)
		a := tape.Sigmoid(x)
		b := tape.Tanh(x)
		c := tape.ReLU(x)
		d := tape.Mul(a, b)
		e := tape.Add(d, tape.Scale(c, 0.5))
		f := tape.Sub(e, b)
		return tape.Dot(f, f)
	}
	loss := func() float64 { return build(NewTape()).V[0] }
	tape := NewTape()
	l := build(tape)
	tape.Backward(l)
	for i := range p.V {
		want := numericGrad(p, i, loss)
		if math.Abs(p.G[i]-want) > 1e-5 {
			t.Fatalf("grad[%d] = %v, numeric %v", i, p.G[i], want)
		}
	}
}

func TestSoftmaxCrossEntropyGradcheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := NewParam("logits", 4, 1).Init(rng)
	label := 2
	loss := func() float64 {
		tape := NewTape()
		return tape.CrossEntropy(tape.Use(p), label).V[0]
	}
	tape := NewTape()
	l := tape.CrossEntropy(tape.Use(p), label)
	tape.Backward(l)
	for i := range p.V {
		want := numericGrad(p, i, loss)
		if math.Abs(p.G[i]-want) > 1e-6 {
			t.Fatalf("grad[%d] = %v, numeric %v", i, p.G[i], want)
		}
	}
}

func TestConcatWeightedSumMeanGradcheck(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := NewParam("p", 6, 1).Init(rng)
	build := func(tape *Tape) *Vec {
		x := tape.Use(p)
		a := tape.Const([]float64{1, 2, 3, 4, 5, 6})
		m := tape.Mean([]*Vec{x, a})
		ws := tape.Softmax(tape.Const([]float64{0.3, 0.7}))
		s := tape.WeightedSum(ws, []*Vec{m, x})
		c := tape.Concat(s, m)
		return tape.Dot(c, c)
	}
	loss := func() float64 { return build(NewTape()).V[0] }
	tape := NewTape()
	l := build(tape)
	tape.Backward(l)
	for i := range p.V {
		want := numericGrad(p, i, loss)
		if math.Abs(p.G[i]-want) > 1e-5 {
			t.Fatalf("grad[%d] = %v, numeric %v", i, p.G[i], want)
		}
	}
}

func TestGRUCellGradcheck(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var set Set
	cell := NewGRUCell(&set, "gru", 3, 4, rng)
	x1 := []float64{0.1, -0.4, 0.7}
	x2 := []float64{-0.3, 0.2, 0.5}
	build := func(tape *Tape) *Vec {
		h := cell.Zero(tape)
		h = cell.Step(tape, tape.Const(x1), h)
		h = cell.Step(tape, tape.Const(x2), h)
		return tape.Dot(h, h)
	}
	loss := func() float64 { return build(NewTape()).V[0] }
	tape := NewTape()
	l := build(tape)
	tape.Backward(l)
	for _, p := range set.All() {
		for i := 0; i < len(p.V); i += 5 { // sample for speed
			want := numericGrad(p, i, loss)
			if math.Abs(p.G[i]-want) > 1e-5 {
				t.Fatalf("%s grad[%d] = %v, numeric %v", p.Name, i, p.G[i], want)
			}
		}
	}
}

func TestAttentionGradcheck(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var set Set
	att := NewAttention(&set, "att", 3, 4, rng)
	q := []float64{0.2, -0.1, 0.6}
	keys := [][]float64{{1, 0, 0.5}, {0, 1, -0.5}, {0.3, 0.3, 0.3}}
	build := func(tape *Tape) *Vec {
		ks := make([]*Vec, len(keys))
		for i, k := range keys {
			ks[i] = tape.Const(k)
		}
		out := att.Pool(tape, tape.Const(q), ks)
		return tape.Dot(out, out)
	}
	loss := func() float64 { return build(NewTape()).V[0] }
	tape := NewTape()
	l := build(tape)
	tape.Backward(l)
	for _, p := range set.All() {
		for i := range p.V {
			want := numericGrad(p, i, loss)
			if math.Abs(p.G[i]-want) > 1e-5 {
				t.Fatalf("%s grad[%d] = %v, numeric %v", p.Name, i, p.G[i], want)
			}
		}
	}
}

func TestGraphConvGradcheck(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var set Set
	gc := NewGraphConv(&set, "gc", 3, rng)
	states := [][]float64{{0.1, 0.2, 0.3}, {-0.2, 0.4, 0.1}, {0.5, -0.5, 0.2}}
	inAdj := [][]int{{1}, {0, 2}, {}}
	outAdj := [][]int{{1}, {0}, {1}}
	build := func(tape *Tape) *Vec {
		ss := make([]*Vec, len(states))
		for i, s := range states {
			ss[i] = tape.Const(s)
		}
		out := gc.Propagate(tape, ss, inAdj, outAdj)
		total := out[0]
		for _, o := range out[1:] {
			total = tape.Add(total, o)
		}
		return tape.Dot(total, total)
	}
	loss := func() float64 { return build(NewTape()).V[0] }
	tape := NewTape()
	l := build(tape)
	tape.Backward(l)
	for _, p := range set.All() {
		for i := range p.V {
			want := numericGrad(p, i, loss)
			if math.Abs(p.G[i]-want) > 1e-5 {
				t.Fatalf("%s grad[%d] = %v, numeric %v", p.Name, i, p.G[i], want)
			}
		}
	}
}

func TestUseRowGradFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	emb := NewParam("emb", 5, 3).Init(rng)
	tape := NewTape()
	v := tape.UseRow(emb, 2)
	l := tape.Dot(v, v)
	tape.Backward(l)
	for i := 0; i < 5; i++ {
		g := emb.RowGrad(i)
		nonzero := g[0] != 0 || g[1] != 0 || g[2] != 0
		if i == 2 && !nonzero {
			t.Error("used row has zero gradient")
		}
		if i != 2 && nonzero {
			t.Errorf("unused row %d has gradient", i)
		}
	}
}

func TestAdamLearnsQuadratic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var set Set
	p := set.Add(NewParam("x", 3, 1).Init(rng))
	target := []float64{1.0, -2.0, 0.5}
	opt := NewAdam(0.05)
	for step := 0; step < 500; step++ {
		tape := NewTape()
		x := tape.Use(p)
		diff := tape.Sub(x, tape.Const(target))
		l := tape.Dot(diff, diff)
		tape.Backward(l)
		opt.Step(&set)
	}
	for i := range target {
		if math.Abs(p.V[i]-target[i]) > 1e-2 {
			t.Fatalf("param[%d] = %v, want %v", i, p.V[i], target[i])
		}
	}
}

func TestMLPLearnsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	var set Set
	mlp := NewMLP(&set, "xor", 2, 8, 2, rng)
	inputs := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	labels := []int{0, 1, 1, 0}
	opt := NewAdam(0.02)
	for epoch := 0; epoch < 400; epoch++ {
		for i, in := range inputs {
			tape := NewTape()
			logits := mlp.Forward(tape, tape.Const(in))
			l := tape.CrossEntropy(logits, labels[i])
			tape.Backward(l)
			opt.Step(&set)
		}
	}
	for i, in := range inputs {
		tape := NewTape()
		logits := mlp.Forward(tape, tape.Const(in))
		pred := 0
		if logits.V[1] > logits.V[0] {
			pred = 1
		}
		if pred != labels[i] {
			t.Fatalf("XOR(%v) predicted %d", in, pred)
		}
	}
}

func TestSetNumParams(t *testing.T) {
	var set Set
	set.Add(NewParam("a", 2, 3), NewParam("b", 4, 1))
	if set.NumParams() != 10 {
		t.Errorf("NumParams = %d, want 10", set.NumParams())
	}
}

func TestMatVecDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("dimension mismatch should panic")
		}
	}()
	tape := NewTape()
	w := NewParam("w", 2, 3)
	tape.MatVec(w, tape.Const([]float64{1, 2}))
}

func TestGradClipping(t *testing.T) {
	var set Set
	p := set.Add(NewParam("x", 1, 1))
	p.G[0] = 1e9
	opt := NewAdam(0.1)
	opt.Step(&set)
	if math.Abs(p.V[0]) > 1.0 {
		t.Errorf("clipped step moved param to %v", p.V[0])
	}
}
