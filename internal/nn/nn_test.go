package nn

import (
	"math"
	"math/rand"
	"testing"

	"anchor/internal/autodiff"
	"anchor/internal/matrix"
)

// gradCheckModule verifies module gradients against finite differences.
func gradCheckModule(t *testing.T, name string, params []*autodiff.Param, buildLoss func(tp *autodiff.Tape) *autodiff.Node) {
	t.Helper()
	tp := autodiff.NewArenaTape()
	tp.Backward(buildLoss(tp))
	const eps = 1e-6
	for _, p := range params {
		for i := range p.Value.Data {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + eps
			lp := buildLoss(autodiff.NewArenaTape()).Value.At(0, 0)
			p.Value.Data[i] = orig - eps
			lm := buildLoss(autodiff.NewArenaTape()).Value.At(0, 0)
			p.Value.Data[i] = orig
			want := (lp - lm) / (2 * eps)
			if got := p.Grad.Data[i]; math.Abs(got-want) > 2e-4*(1+math.Abs(want)) {
				t.Fatalf("%s: %s[%d]: grad %v vs fd %v", name, p.Name, i, got, want)
			}
		}
		p.ZeroGrad()
	}
}

func TestLinearGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lin := NewLinear("lin", 4, 3, rng)
	x := matrix.NewDenseRand(5, 4, 1, rng)
	targets := []int{0, 1, 2, 0, 1}
	gradCheckModule(t, "linear", lin.Params(), func(tp *autodiff.Tape) *autodiff.Node {
		return tp.CrossEntropy(lin.Forward(tp, tp.Const(x)), targets)
	})
}

func TestLSTMGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	lstm := NewLSTM("lstm", 3, 4, rng)
	seq := matrix.NewDenseRand(5, 3, 1, rng)
	gradCheckModule(t, "lstm", lstm.Params(), func(tp *autodiff.Tape) *autodiff.Node {
		h := lstm.Run(tp, tp.Const(seq))
		return tp.SumAll(tp.Mul(h, h))
	})
}

func TestBiLSTMGradAndShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	bi := NewBiLSTM("bi", 3, 2, rng)
	seq := matrix.NewDenseRand(4, 3, 1, rng)
	tp := autodiff.NewArenaTape()
	out := bi.Forward(tp, tp.Const(seq))
	if out.Value.Rows != 4 || out.Value.Cols != 4 {
		t.Fatalf("BiLSTM output %dx%d, want 4x4", out.Value.Rows, out.Value.Cols)
	}
	gradCheckModule(t, "bilstm", bi.Params(), func(tp *autodiff.Tape) *autodiff.Node {
		h := bi.Forward(tp, tp.Const(seq))
		return tp.SumAll(tp.Mul(h, h))
	})
}

func TestBiLSTMBackwardDirectionMatters(t *testing.T) {
	// The backward LSTM state at position 0 must depend on later tokens.
	rng := rand.New(rand.NewSource(4))
	bi := NewBiLSTM("bi", 2, 3, rng)
	seq1 := matrix.NewDenseRand(4, 2, 1, rng)
	seq2 := seq1.Clone()
	seq2.Set(3, 0, seq2.At(3, 0)+1) // change the LAST token

	out1 := bi.Forward(autodiff.NewArenaTape(), autodiff.NewArenaTape().Const(seq1))
	_ = out1
	tp1 := autodiff.NewArenaTape()
	o1 := bi.Forward(tp1, tp1.Const(seq1))
	tp2 := autodiff.NewArenaTape()
	o2 := bi.Forward(tp2, tp2.Const(seq2))
	// Forward half at position 0 must be identical; backward half must differ.
	for j := 0; j < 3; j++ {
		if o1.Value.At(0, j) != o2.Value.At(0, j) {
			t.Fatal("forward state at position 0 changed by a later token")
		}
	}
	differs := false
	for j := 3; j < 6; j++ {
		if o1.Value.At(0, j) != o2.Value.At(0, j) {
			differs = true
		}
	}
	if !differs {
		t.Fatal("backward state at position 0 ignored a later token")
	}
}

func TestConv1DGradAndShape(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	conv := NewConv1D("conv", []int{2, 3}, 3, 4, rng)
	seq := matrix.NewDenseRand(6, 3, 1, rng)
	tp := autodiff.NewArenaTape()
	out := conv.Forward(tp, tp.Const(seq))
	if out.Value.Rows != 1 || out.Value.Cols != 8 {
		t.Fatalf("conv output %dx%d, want 1x8", out.Value.Rows, out.Value.Cols)
	}
	gradCheckModule(t, "conv", conv.Params(), func(tp *autodiff.Tape) *autodiff.Node {
		o := conv.Forward(tp, tp.Const(seq))
		return tp.SumAll(tp.Mul(o, o))
	})
}

func TestConv1DShortSequence(t *testing.T) {
	// Sequence shorter than the largest filter width must still work.
	rng := rand.New(rand.NewSource(6))
	conv := NewConv1D("conv", []int{3, 5}, 2, 3, rng)
	seq := matrix.NewDenseRand(2, 2, 1, rng)
	tp := autodiff.NewArenaTape()
	out := conv.Forward(tp, tp.Const(seq))
	if out.Value.Cols != 6 {
		t.Fatalf("short sequence conv output cols = %d", out.Value.Cols)
	}
}

func TestCRFForwardMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	crf := NewCRF("crf", 3, rng)
	emissions := matrix.NewDenseRand(4, 3, 1, rng)
	tags := []int{0, 2, 1, 1}

	tp := autodiff.NewArenaTape()
	nll := crf.NegLogLikelihood(tp, tp.Const(emissions), tags)

	// Brute force: logZ − goldScore.
	logZ := crf.BruteForceLogZ(emissions)
	gold := crf.Start.Value.At(0, tags[0]) + emissions.At(0, tags[0])
	for t2 := 1; t2 < 4; t2++ {
		gold += crf.Trans.Value.At(tags[t2-1], tags[t2]) + emissions.At(t2, tags[t2])
	}
	gold += crf.End.Value.At(0, tags[3])
	want := logZ - gold
	if math.Abs(nll.Value.At(0, 0)-want) > 1e-9 {
		t.Fatalf("CRF NLL %v != brute force %v", nll.Value.At(0, 0), want)
	}
}

func TestCRFGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	crf := NewCRF("crf", 3, rng)
	emissions := matrix.NewDenseRand(4, 3, 1, rng)
	tags := []int{1, 0, 2, 1}
	gradCheckModule(t, "crf", crf.Params(), func(tp *autodiff.Tape) *autodiff.Node {
		return crf.NegLogLikelihood(tp, tp.Const(emissions), tags)
	})
}

func TestCRFDecodeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	crf := NewCRF("crf", 3, rng)
	emissions := matrix.NewDenseRand(5, 3, 1, rng)
	got := crf.Decode(emissions)

	// Brute force best path.
	n := 5
	bestScore := math.Inf(-1)
	var best []int
	seq := make([]int, n)
	var rec func(t int, acc float64)
	rec = func(t int, acc float64) {
		if t == n {
			total := acc + crf.End.Value.At(0, seq[n-1])
			if total > bestScore {
				bestScore = total
				best = append([]int(nil), seq...)
			}
			return
		}
		for j := 0; j < 3; j++ {
			s := acc + emissions.At(t, j)
			if t == 0 {
				s += crf.Start.Value.At(0, j)
			} else {
				s += crf.Trans.Value.At(seq[t-1], j)
			}
			seq[t] = j
			rec(t+1, s)
		}
	}
	rec(0, 0)
	for i := range best {
		if got[i] != best[i] {
			t.Fatalf("Viterbi path %v != brute force %v", got, best)
		}
	}
}

func TestCRFLearnsTransitions(t *testing.T) {
	// Train a CRF on sequences that always alternate tags 0,1,0,1...
	// With uninformative emissions it must learn the transition structure.
	rng := rand.New(rand.NewSource(10))
	crf := NewCRF("crf", 2, rng)
	emissions := matrix.NewDense(6, 2) // all-zero emissions
	tags := []int{0, 1, 0, 1, 0, 1}
	opt := NewSGD(0.5)
	for it := 0; it < 60; it++ {
		tp := autodiff.NewArenaTape()
		nll := crf.NegLogLikelihood(tp, tp.Const(emissions), tags)
		tp.Backward(nll)
		opt.Step(crf.Params())
	}
	got := crf.Decode(emissions)
	for i, tag := range tags {
		if got[i] != tag {
			t.Fatalf("CRF failed to learn alternation: %v", got)
		}
	}
}

func TestSGDStepAndZero(t *testing.T) {
	p := autodiff.NewParam("p", matrix.NewDenseData(1, 2, []float64{1, 2}))
	p.Grad.Data[0], p.Grad.Data[1] = 0.5, -1
	NewSGD(0.1).Step([]*autodiff.Param{p})
	if math.Abs(p.Value.Data[0]-0.95) > 1e-12 || math.Abs(p.Value.Data[1]-2.1) > 1e-12 {
		t.Fatalf("SGD step wrong: %v", p.Value.Data)
	}
	if p.Grad.Data[0] != 0 || p.Grad.Data[1] != 0 {
		t.Fatal("SGD did not zero gradients")
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize (x-3)^2 + (y+1)^2.
	p := autodiff.NewParam("p", matrix.NewDense(1, 2))
	opt := NewAdam(0.1)
	for it := 0; it < 500; it++ {
		p.Grad.Data[0] = 2 * (p.Value.Data[0] - 3)
		p.Grad.Data[1] = 2 * (p.Value.Data[1] + 1)
		opt.Step([]*autodiff.Param{p})
	}
	if math.Abs(p.Value.Data[0]-3) > 1e-2 || math.Abs(p.Value.Data[1]+1) > 1e-2 {
		t.Fatalf("Adam did not converge: %v", p.Value.Data)
	}
}

func TestLinearTrainsXORWithHidden(t *testing.T) {
	// 2-layer MLP learns XOR: proves the full train loop works end to end.
	rng := rand.New(rand.NewSource(11))
	l1 := NewLinear("l1", 2, 8, rng)
	l2 := NewLinear("l2", 8, 2, rng)
	params := append(l1.Params(), l2.Params()...)
	x := matrix.NewDenseData(4, 2, []float64{0, 0, 0, 1, 1, 0, 1, 1})
	y := []int{0, 1, 1, 0}
	opt := NewAdam(0.05)
	for it := 0; it < 400; it++ {
		tp := autodiff.NewArenaTape()
		h := tp.Tanh(l1.Forward(tp, tp.Const(x)))
		logits := l2.Forward(tp, h)
		loss := tp.CrossEntropy(logits, y)
		tp.Backward(loss)
		opt.Step(params)
	}
	tp := autodiff.NewArenaTape()
	logits := l2.Forward(tp, tp.Tanh(l1.Forward(tp, tp.Const(x)))).Value
	for i, want := range y {
		pred := 0
		if logits.At(i, 1) > logits.At(i, 0) {
			pred = 1
		}
		if pred != want {
			t.Fatalf("XOR example %d misclassified", i)
		}
	}
}

func sameDense(t *testing.T, name string, a, b *matrix.Dense) {
	t.Helper()
	if a.Rows != b.Rows || a.Cols != b.Cols {
		t.Fatalf("%s: shape %dx%d vs %dx%d", name, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("%s: element %d: %v != %v", name, i, a.Data[i], b.Data[i])
		}
	}
}

// TestForwardSeqFusedBitwiseEqualsReference drives the lockstep BiLSTM
// down the fused path and down the unfused reference composition, and
// requires bitwise-identical hidden states and parameter gradients.
func TestForwardSeqFusedBitwiseEqualsReference(t *testing.T) {
	const in, hid, batch, steps = 5, 4, 3, 6
	rng := rand.New(rand.NewSource(21))
	bi := NewBiLSTM("bi", in, hid, rng)
	xs := make([]*matrix.Dense, steps)
	for i := range xs {
		xs[i] = matrix.NewDenseRand(batch, in, 1, rng)
	}

	run := func(forward func(*autodiff.Tape, []*autodiff.Node) *autodiff.Node) (*matrix.Dense, []*matrix.Dense) {
		tp := autodiff.NewArenaTape()
		nodes := make([]*autodiff.Node, steps)
		for i, x := range xs {
			nodes[i] = tp.Const(x)
		}
		h := forward(tp, nodes)
		tp.Backward(tp.SumAll(tp.Mul(h, h)))
		grads := make([]*matrix.Dense, 0, len(bi.Params()))
		for _, p := range bi.Params() {
			grads = append(grads, p.Grad.Clone())
			p.ZeroGrad()
		}
		return h.Value.Clone(), grads
	}

	vFast, gFast := run(bi.ForwardSeq)
	vRef, gRef := run(bi.forwardSeqReference)
	sameDense(t, "hidden states", vFast, vRef)
	for i, p := range bi.Params() {
		sameDense(t, "grad "+p.Name, gFast[i], gRef[i])
	}

	// Each sentence's rows must also equal a per-sentence Forward pass.
	tp := autodiff.NewArenaTape()
	for b := 0; b < batch; b++ {
		seq := matrix.NewDense(steps, in)
		for s := 0; s < steps; s++ {
			copy(seq.Row(s), xs[s].Row(b))
		}
		single := bi.Forward(tp, tp.Const(seq)).Value
		for s := 0; s < steps; s++ {
			for j := 0; j < 2*hid; j++ {
				if single.At(s, j) != vFast.At(s*batch+b, j) {
					t.Fatalf("sentence %d timestep %d col %d: batched %v != single %v",
						b, s, j, vFast.At(s*batch+b, j), single.At(s, j))
				}
			}
		}
	}
}

// TestConvForwardBatchFusedBitwiseEqualsReference checks the batched CNN
// feature extractor against its per-sequence pooling composition, values
// and gradients bit for bit, and its features against per-sequence
// Forward passes, including the short-sequence zero-padding case.
func TestConvForwardBatchFusedBitwiseEqualsReference(t *testing.T) {
	for _, n := range []int{6, 2} { // 2 < max width exercises padding
		rng := rand.New(rand.NewSource(22))
		conv := NewConv1D("conv", []int{2, 3}, 3, 4, rng)
		const batch = 3
		toks := matrix.NewDenseRand(batch*n, 3, 1, rng)
		tok := func(b, t int) []float64 { return toks.Row(b*n + t) }

		type forward func(*autodiff.Tape, func(b, t int) []float64, int, int) *autodiff.Node
		run := func(f forward) (*matrix.Dense, []*matrix.Dense) {
			tp := autodiff.NewArenaTape()
			out := f(tp, tok, batch, n)
			tp.Backward(tp.SumAll(tp.Mul(out, out)))
			grads := make([]*matrix.Dense, 0, len(conv.Params()))
			for _, p := range conv.Params() {
				grads = append(grads, p.Grad.Clone())
				p.ZeroGrad()
			}
			return out.Value.Clone(), grads
		}
		vFast, gFast := run(conv.ForwardBatch)
		vRef, gRef := run(conv.forwardBatchReference)
		sameDense(t, "features", vFast, vRef)
		for i, p := range conv.Params() {
			sameDense(t, "grad "+p.Name, gFast[i], gRef[i])
		}

		tp := autodiff.NewArenaTape()
		for b := 0; b < batch; b++ {
			seq := matrix.NewDenseData(n, 3, toks.Data[b*n*3:(b+1)*n*3])
			sameDense(t, "single-sequence features", matrix.NewDenseData(1, vFast.Cols, vFast.Row(b)),
				conv.Forward(tp, tp.Const(seq)).Value)
		}
	}
}

func TestLengthBatches(t *testing.T) {
	lengths := []int{3, 5, 3, 0, 5, 3, 5, 5, 3, 3}
	batches := LengthBatches(lengths, 2)
	want := [][]int{{0, 2}, {5, 8}, {9}, {1, 4}, {6, 7}}
	if len(batches) != len(want) {
		t.Fatalf("got %d batches, want %d: %v", len(batches), len(want), batches)
	}
	for i, b := range batches {
		if len(b) != len(want[i]) {
			t.Fatalf("batch %d = %v, want %v", i, b, want[i])
		}
		for j := range b {
			if b[j] != want[i][j] {
				t.Fatalf("batch %d = %v, want %v", i, b, want[i])
			}
		}
		n := lengths[b[0]]
		for _, idx := range b {
			if lengths[idx] != n {
				t.Fatalf("batch %d mixes lengths", i)
			}
		}
	}
}

func TestCRFNLLValueMatchesTape(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	crf := NewCRF("crf", 3, rng)
	emissions := matrix.NewDenseRand(5, 3, 1, rng)
	tags := []int{0, 2, 1, 1, 0}
	tp := autodiff.NewArenaTape()
	want := crf.NegLogLikelihood(tp, tp.Const(emissions), tags).Value.At(0, 0)
	got := crf.NLLValue(emissions, tags)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("NLLValue %v != tape NLL %v", got, want)
	}
}

func TestXavierInitBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := matrix.NewDense(10, 10)
	XavierInit(m, 10, 10, rng)
	limit := math.Sqrt(6.0 / 20.0)
	for _, v := range m.Data {
		if math.Abs(v) > limit {
			t.Fatalf("init value %v outside ±%v", v, limit)
		}
	}
}
