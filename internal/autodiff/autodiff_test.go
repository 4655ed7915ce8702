package autodiff

import (
	"math"
	"math/rand"
	"testing"

	"anchor/internal/matrix"
)

// gradCheck verifies the analytic gradient of params under loss against
// central finite differences. buildLoss must rebuild the graph from the
// current parameter values each call.
func gradCheck(t *testing.T, name string, params []*Param, buildLoss func(tp *Tape) *Node) {
	t.Helper()
	tp := NewArenaTape()
	loss := buildLoss(tp)
	tp.Backward(loss)

	const eps = 1e-6
	for _, p := range params {
		for i := range p.Value.Data {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + eps
			lp := buildLoss(NewArenaTape()).Value.At(0, 0)
			p.Value.Data[i] = orig - eps
			lm := buildLoss(NewArenaTape()).Value.At(0, 0)
			p.Value.Data[i] = orig
			want := (lp - lm) / (2 * eps)
			got := p.Grad.Data[i]
			if math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
				t.Fatalf("%s: param %s[%d]: grad %v, finite-diff %v", name, p.Name, i, got, want)
			}
		}
		p.ZeroGrad()
	}
}

func randParam(name string, r, c int, seed int64) *Param {
	rng := rand.New(rand.NewSource(seed))
	return NewParam(name, matrix.NewDenseRand(r, c, 1, rng))
}

func TestGradMatMulAddSub(t *testing.T) {
	a := randParam("a", 3, 4, 1)
	b := randParam("b", 4, 2, 2)
	c := randParam("c", 3, 2, 3)
	gradCheck(t, "matmul", []*Param{a, b, c}, func(tp *Tape) *Node {
		x := tp.MatMul(tp.Use(a), tp.Use(b))
		y := tp.Add(x, tp.Use(c))
		z := tp.Sub(y, tp.Scale(tp.Use(c), 0.5))
		return tp.SumAll(tp.Mul(z, z))
	})
}

func TestGradMatMulABT(t *testing.T) {
	a := randParam("a", 3, 4, 4)
	b := randParam("b", 5, 4, 5)
	gradCheck(t, "matmulABT", []*Param{a, b}, func(tp *Tape) *Node {
		return tp.SumAll(tp.MatMulABT(tp.Use(a), tp.Use(b)))
	})
}

func TestGradActivations(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   func(tp *Tape, n *Node) *Node
	}{
		{"sigmoid", func(tp *Tape, n *Node) *Node { return tp.Sigmoid(n) }},
		{"tanh", func(tp *Tape, n *Node) *Node { return tp.Tanh(n) }},
		{"relu", func(tp *Tape, n *Node) *Node { return tp.ReLU(n) }},
		{"gelu", func(tp *Tape, n *Node) *Node { return tp.GELU(n) }},
		{"softmax", func(tp *Tape, n *Node) *Node { return tp.SoftmaxRows(n) }},
	} {
		a := randParam("a", 3, 5, 6)
		w := randParam("w", 3, 5, 7) // weighting makes softmax grad nontrivial
		gradCheck(t, tc.name, []*Param{a, w}, func(tp *Tape) *Node {
			return tp.SumAll(tp.Mul(tc.op(tp, tp.Use(a)), tp.Use(w)))
		})
	}
}

func TestGradBroadcasts(t *testing.T) {
	a := randParam("a", 4, 3, 8)
	row := randParam("row", 1, 3, 9)
	col := randParam("col", 4, 1, 10)
	gradCheck(t, "broadcast", []*Param{a, row, col}, func(tp *Tape) *Node {
		x := tp.AddRowVec(tp.Use(a), tp.Use(row))
		y := tp.AddColVec(x, tp.Use(col))
		return tp.SumAll(tp.Mul(y, y))
	})
}

func TestGradGatherRows(t *testing.T) {
	emb := randParam("emb", 6, 3, 11)
	idx := []int{2, 0, 2, 5} // repeated index exercises scatter-add
	gradCheck(t, "gather", []*Param{emb}, func(tp *Tape) *Node {
		g := tp.GatherRows(tp.Use(emb), idx)
		return tp.SumAll(tp.Mul(g, g))
	})
}

func TestGradConcatAndSlice(t *testing.T) {
	a := randParam("a", 3, 2, 12)
	b := randParam("b", 3, 4, 13)
	gradCheck(t, "concatcols", []*Param{a, b}, func(tp *Tape) *Node {
		cc := tp.ConcatCols(tp.Use(a), tp.Use(b))
		s := tp.SliceCols(cc, 1, 5)
		return tp.SumAll(tp.Mul(s, s))
	})
	c := randParam("c", 2, 3, 14)
	d := randParam("d", 4, 3, 15)
	gradCheck(t, "concatrows", []*Param{c, d}, func(tp *Tape) *Node {
		cr := tp.ConcatRows(tp.Use(c), tp.Use(d))
		s := tp.SliceRows(cr, 1, 5)
		return tp.SumAll(tp.Mul(s, s))
	})
}

func TestGradPooling(t *testing.T) {
	a := randParam("a", 5, 3, 16)
	gradCheck(t, "meanrows", []*Param{a}, func(tp *Tape) *Node {
		m := tp.MeanRows(tp.Use(a))
		return tp.SumAll(tp.Mul(m, m))
	})
	gradCheck(t, "maxpool", []*Param{a}, func(tp *Tape) *Node {
		m := tp.MaxPoolRows(tp.Use(a))
		return tp.SumAll(tp.Mul(m, m))
	})
}

func TestGradLayerNorm(t *testing.T) {
	a := randParam("a", 4, 6, 17)
	gain := randParam("gain", 1, 6, 18)
	bias := randParam("bias", 1, 6, 19)
	gradCheck(t, "layernorm", []*Param{a, gain, bias}, func(tp *Tape) *Node {
		ln := tp.LayerNormRows(tp.Use(a), tp.Use(gain), tp.Use(bias))
		return tp.SumAll(tp.Mul(ln, ln))
	})
}

func TestGradLogSumExpCols(t *testing.T) {
	a := randParam("a", 4, 3, 20)
	w := randParam("w", 1, 3, 21)
	gradCheck(t, "logsumexp", []*Param{a, w}, func(tp *Tape) *Node {
		l := tp.LogSumExpCols(tp.Use(a))
		return tp.SumAll(tp.Mul(l, tp.Use(w)))
	})
}

func TestGradAt(t *testing.T) {
	a := randParam("a", 3, 3, 22)
	gradCheck(t, "at", []*Param{a}, func(tp *Tape) *Node {
		x := tp.At(tp.Use(a), 1, 2)
		y := tp.At(tp.Use(a), 0, 0)
		return tp.Mul(x, y)
	})
}

func TestGradCrossEntropy(t *testing.T) {
	logits := randParam("logits", 4, 3, 23)
	targets := []int{0, 2, 1, 2}
	gradCheck(t, "crossentropy", []*Param{logits}, func(tp *Tape) *Node {
		return tp.CrossEntropy(tp.Use(logits), targets)
	})
}

func TestGradComposite(t *testing.T) {
	// A miniature MLP end to end: embedding -> linear -> tanh -> linear -> CE.
	emb := randParam("emb", 8, 4, 24)
	w1 := randParam("w1", 4, 5, 25)
	b1 := randParam("b1", 1, 5, 26)
	w2 := randParam("w2", 5, 3, 27)
	idx := []int{1, 3, 7}
	targets := []int{0, 2, 1}
	gradCheck(t, "mlp", []*Param{emb, w1, b1, w2}, func(tp *Tape) *Node {
		x := tp.GatherRows(tp.Use(emb), idx)
		h := tp.Tanh(tp.AddRowVec(tp.MatMul(x, tp.Use(w1)), tp.Use(b1)))
		logits := tp.MatMul(h, tp.Use(w2))
		return tp.CrossEntropy(logits, targets)
	})
}

func TestDropoutIdentityAtZero(t *testing.T) {
	a := randParam("a", 3, 3, 28)
	tp := NewArenaTape()
	n := tp.Use(a)
	if tp.Dropout(n, 0, rand.New(rand.NewSource(1))) != n {
		t.Fatal("dropout with p=0 should be identity")
	}
}

func TestDropoutMaskConsistency(t *testing.T) {
	a := randParam("a", 10, 10, 29)
	tp := NewArenaTape()
	rng := rand.New(rand.NewSource(2))
	d := tp.Dropout(tp.Use(a), 0.5, rng)
	loss := tp.SumAll(d)
	tp.Backward(loss)
	// Zeroed outputs must have zero gradient; surviving ones 1/keep.
	for i := range d.Value.Data {
		if d.Value.Data[i] == 0 {
			if a.Grad.Data[i] != 0 {
				t.Fatal("dropped entry received gradient")
			}
		} else if math.Abs(a.Grad.Data[i]-2) > 1e-12 {
			t.Fatalf("surviving entry grad %v, want 2", a.Grad.Data[i])
		}
	}
}

func TestBackwardRequiresScalar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-scalar loss")
		}
	}()
	tp := NewArenaTape()
	a := tp.Use(randParam("a", 2, 2, 30))
	tp.Backward(a)
}

func TestConstHasNoGradient(t *testing.T) {
	tp := NewArenaTape()
	c := tp.Const(matrix.NewDense(2, 2))
	p := randParam("p", 2, 2, 31)
	loss := tp.SumAll(tp.Mul(c, tp.Use(p)))
	tp.Backward(loss)
	if c.grad != nil {
		t.Fatal("const node should not accumulate gradient")
	}
}

func TestGradAccumulationAcrossUses(t *testing.T) {
	// Using the same parameter twice must sum both contributions.
	p := randParam("p", 1, 1, 32)
	tp := NewArenaTape()
	n1 := tp.Use(p)
	n2 := tp.Use(p)
	loss := tp.SumAll(tp.Add(n1, n2)) // d/dp = 2
	tp.Backward(loss)
	if math.Abs(p.Grad.Data[0]-2) > 1e-12 {
		t.Fatalf("accumulated grad = %v, want 2", p.Grad.Data[0])
	}
}
