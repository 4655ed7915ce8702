package autodiff

import (
	"fmt"
	"math/rand"
	"testing"

	"anchor/internal/matrix"
)

// sameDense fails unless a and b are bitwise identical.
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

// ---- finite-difference gradient checks for every fused op ----

func TestGradLSTMStep(t *testing.T) {
	const in, hid = 3, 2
	x := randParam("x", 4, in, 43)
	h := randParam("h", 4, hid, 44)
	cPrev := randParam("cPrev", 4, hid, 45)
	wx := randParam("wx", in, 4*hid, 46)
	wh := randParam("wh", hid, 4*hid, 47)
	b := randParam("b", 1, 4*hid, 48)
	gradCheck(t, "lstmstep", []*Param{x, h, cPrev, wx, wh, b}, func(tp *Tape) *Node {
		hN, cN := tp.LSTMStep(tp.Use(x), tp.Use(h), tp.Use(cPrev), tp.Use(wx), tp.Use(wh), tp.Use(b), hid)
		return tp.Add(tp.SumAll(tp.Mul(hN, hN)), tp.SumAll(tp.Mul(cN, cN)))
	})
}

func TestGradMaxPoolSegRows(t *testing.T) {
	a := randParam("a", 6, 4, 50) // 2 segments of 3 rows
	gradCheck(t, "maxpoolseg", []*Param{a}, func(tp *Tape) *Node {
		m := tp.MaxPoolSegRows(tp.Use(a), 3)
		return tp.SumAll(tp.Mul(m, m))
	})
}

// ---- bitwise equality of fused ops against their unfused compositions ----

// lstmUnfusedStep replays the generic op composition of one LSTM step on
// packed pre-activations (the pre-fusion tape structure).
func lstmUnfusedStep(tp *Tape, gates, cPrev *Node, h int) (hNew, cNew *Node) {
	i := tp.Sigmoid(tp.SliceCols(gates, 0, h))
	f := tp.Sigmoid(tp.SliceCols(gates, h, 2*h))
	g := tp.Tanh(tp.SliceCols(gates, 2*h, 3*h))
	o := tp.Sigmoid(tp.SliceCols(gates, 3*h, 4*h))
	cNew = tp.Add(tp.Mul(f, cPrev), tp.Mul(i, g))
	hNew = tp.Mul(o, tp.Tanh(cNew))
	return hNew, cNew
}

func TestFusedLSTMStepBitwiseEqualsUnfused(t *testing.T) {
	const in, hid, batch, steps = 4, 3, 5, 4
	rng := rand.New(rand.NewSource(51))
	wx := NewParam("wx", matrix.NewDenseRand(in, 4*hid, 0.6, rng))
	wh := NewParam("wh", matrix.NewDenseRand(hid, 4*hid, 0.6, rng))
	b := NewParam("b", matrix.NewDenseRand(1, 4*hid, 0.6, rng))
	xs := make([]*matrix.Dense, steps)
	for t2 := range xs {
		xs[t2] = matrix.NewDenseRand(batch, in, 1, rng)
	}

	run := func(tp *Tape, fused bool) *matrix.Dense {
		h := tp.Const(matrix.NewDense(batch, hid))
		c := tp.Const(matrix.NewDense(batch, hid))
		wxN, whN, bN := tp.Use(wx), tp.Use(wh), tp.Use(b)
		var outs []*Node
		for _, x := range xs {
			xN := tp.Const(x)
			if fused {
				h, c = tp.LSTMStep(xN, h, c, wxN, whN, bN, hid)
			} else {
				gates := tp.AddRowVec(tp.Add(tp.MatMul(xN, wxN), tp.MatMul(h, whN)), bN)
				h, c = lstmUnfusedStep(tp, gates, c, hid)
			}
			outs = append(outs, h)
		}
		stacked := tp.ConcatRows(outs...)
		tp.Backward(tp.SumAll(tp.Mul(stacked, stacked)))
		return stacked.Value
	}

	fusedOut := run(NewArenaTape(), true)
	gWx := wx.Grad.Clone()
	gWh := wh.Grad.Clone()
	gB := b.Grad.Clone()
	wx.ZeroGrad()
	wh.ZeroGrad()
	b.ZeroGrad()
	unfusedOut := run(NewArenaTape(), false)

	sameDense(t, "hidden states", fusedOut, unfusedOut)
	sameDense(t, "dWx", gWx, wx.Grad)
	sameDense(t, "dWh", gWh, wh.Grad)
	sameDense(t, "db", gB, b.Grad)
}

func TestMaxPoolSegRowsBitwiseEqualsComposition(t *testing.T) {
	const segs, seg, cols = 3, 4, 5
	a := randParam("a", segs*seg, cols, 52)
	w := randParam("w", segs, cols, 53)

	tp1 := NewArenaTape()
	fused := tp1.MaxPoolSegRows(tp1.Use(a), seg)
	tp1.Backward(tp1.SumAll(tp1.Mul(fused, tp1.Use(w))))
	gFused := a.Grad.Clone()
	a.ZeroGrad()
	w.ZeroGrad()

	tp2 := NewArenaTape()
	an := tp2.Use(a)
	parts := make([]*Node, segs)
	for s := 0; s < segs; s++ {
		parts[s] = tp2.MaxPoolRows(tp2.SliceRows(an, s*seg, (s+1)*seg))
	}
	unfused := tp2.ConcatRows(parts...)
	tp2.Backward(tp2.SumAll(tp2.Mul(unfused, tp2.Use(w))))

	sameDense(t, "pooled", fused.Value, unfused.Value)
	sameDense(t, "grad", gFused, a.Grad)
}

func TestLookupRows(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	src := matrix.NewDenseRand(6, 3, 1, rng)
	tp := NewArenaTape()
	n := tp.LookupRows(src, []int32{4, 0, 4})
	for r, id := range []int{4, 0, 4} {
		for j := 0; j < 3; j++ {
			if n.Value.At(r, j) != src.At(id, j) {
				t.Fatalf("row %d mismatch", r)
			}
		}
	}
	if n.grad != nil {
		t.Fatal("lookup node must be constant")
	}
}

// ---- arena behavior ----

// everyOpParams are the parameters of everyOpGraph.
type everyOpParams struct {
	x, w, b, col, emb, gain, bias, wx, wh, lb *Param
}

func newEveryOpParams(seed int64, scale float64) everyOpParams {
	rng := rand.New(rand.NewSource(seed))
	p := func(name string, r, c int) *Param {
		return NewParam(name, matrix.NewDenseRand(r, c, scale, rng))
	}
	return everyOpParams{
		x: p("x", 4, 3), w: p("w", 3, 5), b: p("b", 1, 5), col: p("col", 4, 1),
		emb: p("emb", 6, 3), gain: p("gain", 1, 5), bias: p("bias", 1, 5),
		wx: p("wx", 3, 8), wh: p("wh", 2, 8), lb: p("lb", 1, 8),
	}
}

func (ps everyOpParams) all() []*Param {
	return []*Param{ps.x, ps.w, ps.b, ps.col, ps.emb, ps.gain, ps.bias, ps.wx, ps.wh, ps.lb}
}

// everyOpGraph records one graph that uses every Tape op, plain and
// fused, differentiates it, and returns the loss node.
func everyOpGraph(tp *Tape, ps everyOpParams, src *matrix.Dense) *Node {
	x := tp.Use(ps.x)
	h := tp.AddColVec(tp.AddRowVec(tp.MatMul(x, tp.Use(ps.w)), tp.Use(ps.b)), tp.Use(ps.col))
	h = tp.LayerNormRows(h, tp.Use(ps.gain), tp.Use(ps.bias))
	a, th, r, g := tp.Sigmoid(h), tp.Tanh(h), tp.ReLU(h), tp.GELU(h)
	s := tp.SoftmaxRows(tp.MatMulABT(a, th))
	m := tp.Mul(tp.Sub(tp.Add(a, th), tp.Scale(r, 0.5)), g)
	d := tp.Dropout(m, 0.3, rand.New(rand.NewSource(1)))
	cat := tp.ConcatCols(tp.SliceCols(d, 1, 4), tp.GatherRows(tp.Use(ps.emb), []int{1, 4, 4, 0}))
	rows := tp.ConcatRows(tp.SliceRows(cat, 0, 2), tp.MeanRows(cat), tp.MaxPoolRows(cat))

	const hid = 2
	wx, wh, lb := tp.Use(ps.wx), tp.Use(ps.wh), tp.Use(ps.lb)
	c0 := tp.Const(matrix.NewDenseData(3, hid, []float64{0.1, -0.2, 0.3, 0.4, -0.5, 0.6}))
	h1, c1 := tp.LSTMStep(tp.SliceRows(x, 1, 4), tp.NewConstBuf(3, hid), c0, wx, wh, lb, hid)
	h2, c2 := tp.LSTMStep(tp.LookupRows(src, []int32{2, 5, 0}), h1, c1, wx, wh, lb, hid)
	pool := tp.MaxPoolSegRows(tp.StackBiRows([]*Node{h1, h2}, []*Node{c2, c1}), 3)

	loss := tp.SumAll(tp.ConcatCols(
		tp.LogSumExpCols(rows),
		tp.Reshape(pool, 1, 8),
		tp.CrossEntropy(rows, []int{0, 5, 2, 3}),
		tp.At(s, 1, 2),
	))
	tp.Backward(loss)
	return loss
}

func TestArenaTapeResetReproducesBitwise(t *testing.T) {
	// A recording on a reset arena tape reads stale memory wherever an op
	// fails to overwrite or zero what it takes. Record every op on a fresh
	// tape, then again on a tape that a large-valued recording of another
	// layout has dirtied and Reset: every node value and every parameter
	// gradient must match bit for bit.
	src := matrix.NewDenseRand(6, 3, 1, rand.New(rand.NewSource(55)))
	ps := newEveryOpParams(56, 1)
	record := func(tp *Tape) ([]*matrix.Dense, []*matrix.Dense) {
		everyOpGraph(tp, ps, src)
		values := make([]*matrix.Dense, len(tp.nodes))
		for i, n := range tp.nodes {
			values[i] = n.Value.Clone()
		}
		var grads []*matrix.Dense
		for _, p := range ps.all() {
			grads = append(grads, p.Grad.Clone())
			p.ZeroGrad()
		}
		return values, grads
	}
	v1, g1 := record(NewArenaTape())

	big := newEveryOpParams(57, 1e6)
	bigSrc := matrix.NewDenseRand(6, 3, 1e6, rand.New(rand.NewSource(58)))
	tp := NewArenaTape()
	for round := 0; round < 2; round++ {
		// Shift the layout by an odd number of floats, so the dirty
		// values land under different ops than in the recording checked.
		tp.Scale(tp.Use(NewParam("shift", matrix.NewDenseRand(1, 7, 1e6, rand.New(rand.NewSource(59))))), 3)
		everyOpGraph(tp, big, bigSrc)
		tp.Reset()
		v2, g2 := record(tp)
		if len(v2) != len(v1) {
			t.Fatalf("round %d: %d nodes, fresh tape recorded %d", round, len(v2), len(v1))
		}
		for i := range v1 {
			sameDense(t, fmt.Sprintf("round %d node %d value", round, i), v1[i], v2[i])
		}
		for i, p := range ps.all() {
			sameDense(t, fmt.Sprintf("round %d grad %s", round, p.Name), g1[i], g2[i])
		}
		tp.Reset()
	}
}

func TestArenaTapeSteadyStateAllocations(t *testing.T) {
	// After warmup, re-recording the same minibatch graph on a reset arena
	// tape must allocate far less than one heap object per op (only the
	// backward closures remain; values, gradients, and nodes are reused).
	x := randParam("x", 8, 4, 57)
	h0 := randParam("h0", 8, 3, 58)
	c0 := randParam("c0", 8, 3, 59)
	wx := randParam("wx", 4, 12, 60)
	wh := randParam("wh", 3, 12, 61)
	b := randParam("b", 1, 12, 62)
	ps := []*Param{x, h0, c0, wx, wh, b}
	tp := NewArenaTape()
	step := func() {
		tp.Reset()
		hN, _ := tp.LSTMStep(tp.Use(x), tp.Use(h0), tp.Use(c0), tp.Use(wx), tp.Use(wh), tp.Use(b), 3)
		tp.Backward(tp.CrossEntropy(hN, []int{0, 1, 2, 0, 1, 2, 0, 1}))
		for _, p := range ps {
			p.ZeroGrad()
		}
	}
	step() // warm the arena
	allocs := testing.AllocsPerRun(20, step)
	if allocs > 12 {
		t.Fatalf("steady-state arena tape allocates %.1f objects per step", allocs)
	}
}
