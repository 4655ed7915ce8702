// Package autodiff implements a small tape-based reverse-mode automatic
// differentiation engine over dense matrices. It exists so the downstream
// models of the paper (linear bag-of-words, CNN, BiLSTM, BiLSTM-CRF, and
// the mini-BERT feature extractor) can be trained from scratch with
// gradient code that is written once and verified once (against finite
// differences) instead of hand-derived per model.
//
// A Tape records operations in execution order; Backward walks the tape in
// reverse. Nodes wrap matrix.Dense values; gradients accumulate into
// per-node buffers, and parameter nodes share their gradient buffer with
// the caller so optimizers can consume them.
//
// Every tape is backed by a resettable arena (arena.go): nodes, values,
// gradients, and scratch come from bump slabs, and Reset rewinds them so
// capacity is reused across minibatches, making steady-state training
// nearly allocation-free. Trainers hoist one tape out of their loop and
// Reset it each step.
//
// Determinism contract (extending the matrix package's): every op fully
// overwrites or zeroes the stale arena memory it takes, so a recording on
// a reset tape is bitwise identical to the same recording on a fresh one;
// matrix products run through the blocked kernels whose results are
// bitwise identical for every worker count; and the fused ops in fused.go
// are bitwise identical to the unfused compositions they replace, which
// the equality tests keep as their oracles.
package autodiff

import (
	"math"
	"math/rand"

	"anchor/internal/floats"
	"anchor/internal/matrix"
)

// Node is one value in the computation graph.
type Node struct {
	Value *matrix.Dense
	grad  *matrix.Dense
	needs bool        // participates in gradient computation
	tape  *Tape       // owning tape (for gradient/scratch allocation)
	back  func(*Node) // propagates the node's grad into its parents
}

func (n *Node) ensureGrad() *matrix.Dense {
	if n.grad == nil {
		n.grad = n.tape.newZeroDense(n.Value.Rows, n.Value.Cols)
	}
	return n.grad
}

// Param is a trainable parameter: a value plus a persistent gradient
// accumulator shared across tapes.
type Param struct {
	Name  string
	Value *matrix.Dense
	Grad  *matrix.Dense
}

// NewParam allocates a named parameter with a zeroed gradient.
func NewParam(name string, value *matrix.Dense) *Param {
	return &Param{Name: name, Value: value, Grad: matrix.NewDense(value.Rows, value.Cols)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { floats.Fill(p.Grad.Data, 0) }

// Tape records a computation for reverse-mode differentiation.
type Tape struct {
	nodes []*Node
	arena arena

	// Workers is the goroutine budget for the tape's matrix-product
	// kernels (<= 0 selects all CPUs). Products are bitwise identical for
	// every value, so this is a pure throughput knob; trainers that
	// already parallelize at a coarser grain set it to 1.
	Workers int
}

// NewArenaTape returns an empty tape whose nodes, values, gradients, and
// scratch come from a resettable arena. Call Reset between minibatches to
// reuse the arena's capacity; values and gradients recorded before a
// Reset are invalid afterwards.
func NewArenaTape() *Tape { return &Tape{} }

// Reset clears the tape for re-recording. All previously returned nodes,
// values, and gradients become invalid and their storage is reused;
// parameters (and their Grad accumulators) are unaffected.
func (t *Tape) Reset() {
	t.nodes = t.nodes[:0]
	t.arena.reset()
}

// ---- arena allocation helpers ----

func (t *Tape) newNode() *Node { return t.arena.node() }

// newDense returns an r-by-c matrix whose contents the caller fully
// overwrites (arena memory is stale, not zeroed).
func (t *Tape) newDense(r, c int) *matrix.Dense {
	d := t.arena.dense()
	d.Rows, d.Cols = r, c
	d.Data = t.arena.floats(r * c)
	return d
}

// newZeroDense returns a zeroed r-by-c matrix.
func (t *Tape) newZeroDense(r, c int) *matrix.Dense {
	d := t.newDense(r, c)
	floats.Fill(d.Data, 0)
	return d
}

// newDenseCopy returns a copy of src.
func (t *Tape) newDenseCopy(src *matrix.Dense) *matrix.Dense {
	d := t.newDense(src.Rows, src.Cols)
	copy(d.Data, src.Data)
	return d
}

func (t *Tape) newFloats(n int) []float64 { return t.arena.floats(n) }

func (t *Tape) newInts(n int) []int { return t.arena.ints(n) }

func (t *Tape) add(n *Node) *Node {
	n.tape = t
	t.nodes = append(t.nodes, n)
	return n
}

// Const introduces a value that does not require gradients.
func (t *Tape) Const(v *matrix.Dense) *Node {
	n := t.newNode()
	n.Value = v
	return t.add(n)
}

// NewConstBuf returns a constant node with an arena-backed zeroed r-by-c
// value for the caller to fill in place. It is the allocation-free
// analogue of Const(matrix.NewDense(..)).
func (t *Tape) NewConstBuf(r, c int) *Node {
	n := t.newNode()
	n.Value = t.newZeroDense(r, c)
	return t.add(n)
}

// Use introduces a parameter; gradients accumulate into p.Grad.
func (t *Tape) Use(p *Param) *Node {
	n := t.newNode()
	n.Value = p.Value
	n.grad = p.Grad
	n.needs = true
	return t.add(n)
}

// Backward runs reverse-mode differentiation from the scalar loss node,
// seeding its gradient with 1.
func (t *Tape) Backward(loss *Node) {
	if loss.Value.Rows != 1 || loss.Value.Cols != 1 {
		panic("autodiff: Backward requires a 1x1 loss node")
	}
	loss.ensureGrad().Set(0, 0, 1)
	for i := len(t.nodes) - 1; i >= 0; i-- {
		n := t.nodes[i]
		if n.back != nil && n.grad != nil {
			n.back(n)
		}
	}
}

func (t *Tape) unary(a *Node, value *matrix.Dense, back func(out *Node)) *Node {
	out := t.newNode()
	out.Value = value
	out.needs = a.needs
	if a.needs {
		out.back = back
	}
	return t.add(out)
}

func (t *Tape) binary(a, b *Node, value *matrix.Dense, back func(out *Node)) *Node {
	out := t.newNode()
	out.Value = value
	out.needs = a.needs || b.needs
	if out.needs {
		out.back = back
	}
	return t.add(out)
}

// Add returns a + b (same shape).
func (t *Tape) Add(a, b *Node) *Node {
	v := t.newDenseCopy(a.Value)
	v.Add(b.Value)
	return t.binary(a, b, v, func(out *Node) {
		if a.needs {
			a.ensureGrad().Add(out.grad)
		}
		if b.needs {
			b.ensureGrad().Add(out.grad)
		}
	})
}

// Sub returns a - b (same shape).
func (t *Tape) Sub(a, b *Node) *Node {
	v := t.newDenseCopy(a.Value)
	v.Sub(b.Value)
	return t.binary(a, b, v, func(out *Node) {
		if a.needs {
			a.ensureGrad().Add(out.grad)
		}
		if b.needs {
			b.ensureGrad().Sub(out.grad)
		}
	})
}

// Mul returns the element-wise product a ⊙ b.
//
//anchorlint:ignore testonly unfused oracle op: the reference_test.go files of nn and tasks/ner compose LSTM steps from it
func (t *Tape) Mul(a, b *Node) *Node {
	v := t.newDense(a.Value.Rows, a.Value.Cols)
	for i, x := range a.Value.Data {
		v.Data[i] = x * b.Value.Data[i]
	}
	return t.binary(a, b, v, func(out *Node) {
		if a.needs {
			g := a.ensureGrad()
			for i := range g.Data {
				g.Data[i] += out.grad.Data[i] * b.Value.Data[i]
			}
		}
		if b.needs {
			g := b.ensureGrad()
			for i := range g.Data {
				g.Data[i] += out.grad.Data[i] * a.Value.Data[i]
			}
		}
	})
}

// Scale returns alpha * a.
func (t *Tape) Scale(a *Node, alpha float64) *Node {
	v := t.newDense(a.Value.Rows, a.Value.Cols)
	for i, x := range a.Value.Data {
		v.Data[i] = x * alpha
	}
	return t.unary(a, v, func(out *Node) {
		g := a.ensureGrad()
		floats.Axpy(alpha, out.grad.Data, g.Data)
	})
}

// MatMul returns a · b, computed by the blocked kernel; the backward pass
// runs the transposed-product kernels into tape scratch.
func (t *Tape) MatMul(a, b *Node) *Node {
	v := t.newDense(a.Value.Rows, b.Value.Cols)
	matrix.MulInto(v, a.Value, b.Value, t.Workers)
	return t.binary(a, b, v, func(out *Node) {
		tp := out.tape
		if a.needs {
			s := tp.newDense(a.Value.Rows, a.Value.Cols)
			matrix.MulABTInto(s, out.grad, b.Value, tp.Workers)
			a.ensureGrad().Add(s)
		}
		if b.needs {
			s := tp.newDense(b.Value.Rows, b.Value.Cols)
			matrix.MulATBInto(s, a.Value, out.grad, tp.Workers)
			b.ensureGrad().Add(s)
		}
	})
}

// MatMulABT returns a · bᵀ (used for attention scores).
func (t *Tape) MatMulABT(a, b *Node) *Node {
	v := t.newDense(a.Value.Rows, b.Value.Rows)
	matrix.MulABTInto(v, a.Value, b.Value, t.Workers)
	return t.binary(a, b, v, func(out *Node) {
		tp := out.tape
		if a.needs {
			s := tp.newDense(a.Value.Rows, a.Value.Cols)
			matrix.MulInto(s, out.grad, b.Value, tp.Workers)
			a.ensureGrad().Add(s)
		}
		if b.needs {
			s := tp.newDense(b.Value.Rows, b.Value.Cols)
			matrix.MulATBInto(s, out.grad, a.Value, tp.Workers)
			b.ensureGrad().Add(s)
		}
	})
}

// AddRowVec broadcasts the 1-by-c row vector b over every row of a.
func (t *Tape) AddRowVec(a, b *Node) *Node {
	if b.Value.Rows != 1 || b.Value.Cols != a.Value.Cols {
		panic("autodiff: AddRowVec shape mismatch")
	}
	v := t.newDenseCopy(a.Value)
	for i := 0; i < v.Rows; i++ {
		floats.Add(v.Row(i), b.Value.Row(0))
	}
	return t.binary(a, b, v, func(out *Node) {
		if a.needs {
			a.ensureGrad().Add(out.grad)
		}
		if b.needs {
			g := b.ensureGrad().Row(0)
			for i := 0; i < out.grad.Rows; i++ {
				floats.Add(g, out.grad.Row(i))
			}
		}
	})
}

// AddColVec broadcasts the r-by-1 column vector b over every column of a.
func (t *Tape) AddColVec(a, b *Node) *Node {
	if b.Value.Cols != 1 || b.Value.Rows != a.Value.Rows {
		panic("autodiff: AddColVec shape mismatch")
	}
	v := t.newDenseCopy(a.Value)
	for i := 0; i < v.Rows; i++ {
		bi := b.Value.At(i, 0)
		row := v.Row(i)
		for j := range row {
			row[j] += bi
		}
	}
	return t.binary(a, b, v, func(out *Node) {
		if a.needs {
			a.ensureGrad().Add(out.grad)
		}
		if b.needs {
			g := b.ensureGrad()
			for i := 0; i < out.grad.Rows; i++ {
				g.Data[i] += floats.Sum(out.grad.Row(i))
			}
		}
	})
}

func (t *Tape) pointwise(a *Node, f, df func(float64) float64) *Node {
	v := t.newDense(a.Value.Rows, a.Value.Cols)
	for i, x := range a.Value.Data {
		v.Data[i] = f(x)
	}
	return t.unary(a, v, func(out *Node) {
		g := a.ensureGrad()
		for i := range g.Data {
			g.Data[i] += out.grad.Data[i] * df(a.Value.Data[i])
		}
	})
}

// Sigmoid applies the logistic function element-wise.
//
//anchorlint:ignore testonly unfused oracle op: the reference_test.go files of nn and tasks/ner compose LSTM steps from it
func (t *Tape) Sigmoid(a *Node) *Node {
	sig := func(x float64) float64 { return 1 / (1 + math.Exp(-x)) }
	return t.pointwise(a, sig, func(x float64) float64 {
		s := sig(x)
		return s * (1 - s)
	})
}

// Tanh applies tanh element-wise.
//
//anchorlint:ignore testonly unfused oracle op: the reference_test.go files of nn and tasks/ner compose LSTM steps from it
func (t *Tape) Tanh(a *Node) *Node {
	return t.pointwise(a, math.Tanh, func(x float64) float64 {
		th := math.Tanh(x)
		return 1 - th*th
	})
}

// ReLU applies max(0, x) element-wise.
func (t *Tape) ReLU(a *Node) *Node {
	return t.pointwise(a,
		func(x float64) float64 { return math.Max(0, x) },
		func(x float64) float64 {
			if x > 0 {
				return 1
			}
			return 0
		})
}

// GELU applies the Gaussian error linear unit (tanh approximation used by
// BERT) element-wise.
func (t *Tape) GELU(a *Node) *Node {
	const c = 0.7978845608028654 // sqrt(2/π)
	gelu := func(x float64) float64 {
		return 0.5 * x * (1 + math.Tanh(c*(x+0.044715*x*x*x)))
	}
	dgelu := func(x float64) float64 {
		inner := c * (x + 0.044715*x*x*x)
		th := math.Tanh(inner)
		dinner := c * (1 + 3*0.044715*x*x)
		return 0.5*(1+th) + 0.5*x*(1-th*th)*dinner
	}
	return t.pointwise(a, gelu, dgelu)
}

// SoftmaxRows applies softmax independently to each row.
func (t *Tape) SoftmaxRows(a *Node) *Node {
	v := t.newDense(a.Value.Rows, a.Value.Cols)
	for i := 0; i < v.Rows; i++ {
		floats.Softmax(v.Row(i), a.Value.Row(i))
	}
	return t.unary(a, v, func(out *Node) {
		g := a.ensureGrad()
		for i := 0; i < v.Rows; i++ {
			s := v.Row(i)
			og := out.grad.Row(i)
			dot := floats.Dot(og, s)
			gr := g.Row(i)
			for j := range gr {
				gr[j] += s[j] * (og[j] - dot)
			}
		}
	})
}

// GatherRows selects rows of a by index (embedding lookup). Gradients
// scatter-add back into the source rows. The index slice is copied, so
// callers may reuse their buffer after the call.
func (t *Tape) GatherRows(a *Node, idx []int) *Node {
	cp := t.newInts(len(idx))
	copy(cp, idx)
	idx = cp
	v := t.newDense(len(idx), a.Value.Cols)
	for r, id := range idx {
		copy(v.Row(r), a.Value.Row(id))
	}
	return t.unary(a, v, func(out *Node) {
		g := a.ensureGrad()
		for r, id := range idx {
			floats.Add(g.Row(id), out.grad.Row(r))
		}
	})
}

// ConcatCols concatenates nodes horizontally (same row count).
func (t *Tape) ConcatCols(nodes ...*Node) *Node {
	rows := nodes[0].Value.Rows
	cols := 0
	needs := false
	for _, n := range nodes {
		if n.Value.Rows != rows {
			panic("autodiff: ConcatCols row mismatch")
		}
		cols += n.Value.Cols
		needs = needs || n.needs
	}
	v := t.newDense(rows, cols)
	off := 0
	for _, n := range nodes {
		for i := 0; i < rows; i++ {
			copy(v.Row(i)[off:off+n.Value.Cols], n.Value.Row(i))
		}
		off += n.Value.Cols
	}
	out := t.newNode()
	out.Value = v
	out.needs = needs
	if needs {
		out.back = func(out *Node) {
			off := 0
			for _, n := range nodes {
				if n.needs {
					g := n.ensureGrad()
					for i := 0; i < rows; i++ {
						floats.Add(g.Row(i), out.grad.Row(i)[off:off+n.Value.Cols])
					}
				}
				off += n.Value.Cols
			}
		}
	}
	return t.add(out)
}

// ConcatRows concatenates nodes vertically (same column count).
func (t *Tape) ConcatRows(nodes ...*Node) *Node {
	cols := nodes[0].Value.Cols
	rows := 0
	needs := false
	for _, n := range nodes {
		if n.Value.Cols != cols {
			panic("autodiff: ConcatRows col mismatch")
		}
		rows += n.Value.Rows
		needs = needs || n.needs
	}
	v := t.newDense(rows, cols)
	r := 0
	for _, n := range nodes {
		copy(v.Data[r*cols:(r+n.Value.Rows)*cols], n.Value.Data)
		r += n.Value.Rows
	}
	out := t.newNode()
	out.Value = v
	out.needs = needs
	if needs {
		out.back = func(out *Node) {
			r := 0
			for _, n := range nodes {
				if n.needs {
					g := n.ensureGrad()
					floats.Add(g.Data, out.grad.Data[r*cols:(r+n.Value.Rows)*cols])
				}
				r += n.Value.Rows
			}
		}
	}
	return t.add(out)
}

// SliceCols returns columns [from, to) of a.
func (t *Tape) SliceCols(a *Node, from, to int) *Node {
	v := t.newDense(a.Value.Rows, to-from)
	for i := 0; i < v.Rows; i++ {
		copy(v.Row(i), a.Value.Row(i)[from:to])
	}
	return t.unary(a, v, func(out *Node) {
		g := a.ensureGrad()
		for i := 0; i < out.Value.Rows; i++ {
			floats.Add(g.Row(i)[from:to], out.grad.Row(i))
		}
	})
}

// SliceRows returns rows [from, to) of a.
func (t *Tape) SliceRows(a *Node, from, to int) *Node {
	cols := a.Value.Cols
	v := t.newDense(to-from, cols)
	copy(v.Data, a.Value.Data[from*cols:to*cols])
	return t.unary(a, v, func(out *Node) {
		g := a.ensureGrad()
		floats.Add(g.Data[from*cols:to*cols], out.grad.Data)
	})
}

// MeanRows averages rows into a 1-by-c node.
func (t *Tape) MeanRows(a *Node) *Node {
	v := t.newZeroDense(1, a.Value.Cols)
	for i := 0; i < a.Value.Rows; i++ {
		floats.Add(v.Row(0), a.Value.Row(i))
	}
	inv := 1 / float64(a.Value.Rows)
	floats.Scale(inv, v.Row(0))
	return t.unary(a, v, func(out *Node) {
		g := a.ensureGrad()
		for i := 0; i < g.Rows; i++ {
			floats.Axpy(inv, out.grad.Row(0), g.Row(i))
		}
	})
}

// MaxPoolRows takes the column-wise maximum over rows into a 1-by-c node;
// gradients route to the argmax rows.
//
//anchorlint:ignore testonly unfused oracle op: the reference_test.go files of nn and tasks/sentiment pool each sentence with it
func (t *Tape) MaxPoolRows(a *Node) *Node {
	cols := a.Value.Cols
	v := t.newDense(1, cols)
	arg := t.newInts(cols)
	for j := 0; j < cols; j++ {
		best, bi := a.Value.At(0, j), 0
		for i := 1; i < a.Value.Rows; i++ {
			if x := a.Value.At(i, j); x > best {
				best, bi = x, i
			}
		}
		v.Set(0, j, best)
		arg[j] = bi
	}
	return t.unary(a, v, func(out *Node) {
		g := a.ensureGrad()
		for j := 0; j < cols; j++ {
			g.Set(arg[j], j, g.At(arg[j], j)+out.grad.At(0, j))
		}
	})
}

// LayerNormRows normalizes each row to zero mean and unit variance, then
// applies the learned per-column gain and bias (1-by-c nodes).
func (t *Tape) LayerNormRows(a, gain, bias *Node) *Node {
	const eps = 1e-5
	rows, cols := a.Value.Rows, a.Value.Cols
	v := t.newDense(rows, cols)
	xhat := t.newDense(rows, cols)
	invStd := t.newFloats(rows)
	for i := 0; i < rows; i++ {
		row := a.Value.Row(i)
		mean := floats.Mean(row)
		var variance float64
		for _, x := range row {
			d := x - mean
			variance += d * d
		}
		variance /= float64(cols)
		is := 1 / math.Sqrt(variance+eps)
		invStd[i] = is
		xr := xhat.Row(i)
		vr := v.Row(i)
		for j, x := range row {
			xr[j] = (x - mean) * is
			vr[j] = xr[j]*gain.Value.At(0, j) + bias.Value.At(0, j)
		}
	}
	out := t.newNode()
	out.Value = v
	out.needs = a.needs || gain.needs || bias.needs
	if out.needs {
		out.back = func(out *Node) {
			gd := out.tape.newFloats(cols)
			for i := 0; i < rows; i++ {
				og := out.grad.Row(i)
				xr := xhat.Row(i)
				if gain.needs {
					g := gain.ensureGrad().Row(0)
					for j := range g {
						g[j] += og[j] * xr[j]
					}
				}
				if bias.needs {
					g := bias.ensureGrad().Row(0)
					floats.Add(g, og)
				}
				if a.needs {
					// dL/dx = (gain*og - mean(gain*og) - xhat*mean(gain*og*xhat)) * invStd
					for j := range gd {
						gd[j] = og[j] * gain.Value.At(0, j)
					}
					m1 := floats.Mean(gd)
					var m2 float64
					for j := range gd {
						m2 += gd[j] * xr[j]
					}
					m2 /= float64(cols)
					ga := a.ensureGrad().Row(i)
					for j := range ga {
						ga[j] += (gd[j] - m1 - xr[j]*m2) * invStd[i]
					}
				}
			}
		}
	}
	return t.add(out)
}

// Dropout zeroes entries with probability p and scales survivors by
// 1/(1-p) (inverted dropout). With p <= 0 it is the identity.
func (t *Tape) Dropout(a *Node, p float64, rng *rand.Rand) *Node {
	if p <= 0 {
		return a
	}
	keep := 1 - p
	mask := t.newDense(a.Value.Rows, a.Value.Cols)
	for i := range mask.Data {
		if rng.Float64() < keep {
			mask.Data[i] = 1 / keep
		} else {
			mask.Data[i] = 0
		}
	}
	v := t.newDense(a.Value.Rows, a.Value.Cols)
	for i, x := range a.Value.Data {
		v.Data[i] = x * mask.Data[i]
	}
	return t.unary(a, v, func(out *Node) {
		g := a.ensureGrad()
		for i := range g.Data {
			g.Data[i] += out.grad.Data[i] * mask.Data[i]
		}
	})
}

// LogSumExpCols reduces over rows: out[0][j] = log Σ_i exp(a[i][j]).
func (t *Tape) LogSumExpCols(a *Node) *Node {
	rows, cols := a.Value.Rows, a.Value.Cols
	v := t.newDense(1, cols)
	col := t.newFloats(rows)
	for j := 0; j < cols; j++ {
		for i := 0; i < rows; i++ {
			col[i] = a.Value.At(i, j)
		}
		v.Set(0, j, floats.LogSumExp(col))
	}
	return t.unary(a, v, func(out *Node) {
		g := a.ensureGrad()
		for j := 0; j < cols; j++ {
			lse := v.At(0, j)
			og := out.grad.At(0, j)
			for i := 0; i < rows; i++ {
				g.Set(i, j, g.At(i, j)+og*math.Exp(a.Value.At(i, j)-lse))
			}
		}
	})
}

// Reshape reinterprets a as an r-by-c matrix with the same number of
// elements (row-major order preserved).
func (t *Tape) Reshape(a *Node, r, c int) *Node {
	if r*c != a.Value.Rows*a.Value.Cols {
		panic("autodiff: Reshape element count mismatch")
	}
	v := t.newDense(r, c)
	copy(v.Data, a.Value.Data)
	return t.unary(a, v, func(out *Node) {
		g := a.ensureGrad()
		floats.Add(g.Data, out.grad.Data)
	})
}

// SumAll reduces a to a 1x1 scalar node.
//
//anchorlint:ignore testonly the scalar loss of the gradient checks in autodiff's and nn's tests
func (t *Tape) SumAll(a *Node) *Node {
	v := t.newDense(1, 1)
	v.Set(0, 0, floats.Sum(a.Value.Data))
	return t.unary(a, v, func(out *Node) {
		g := a.ensureGrad()
		og := out.grad.At(0, 0)
		for i := range g.Data {
			g.Data[i] += og
		}
	})
}

// At extracts element (i, j) as a 1x1 scalar node.
func (t *Tape) At(a *Node, i, j int) *Node {
	v := t.newDense(1, 1)
	v.Set(0, 0, a.Value.At(i, j))
	return t.unary(a, v, func(out *Node) {
		g := a.ensureGrad()
		g.Set(i, j, g.At(i, j)+out.grad.At(0, 0))
	})
}

// CrossEntropy computes the mean softmax cross-entropy between logits
// (n-by-C) and integer targets. The combined op is numerically stable and
// has the exact gradient (softmax − onehot)/n. The target slice is
// copied, so callers may reuse their buffer after the call.
func (t *Tape) CrossEntropy(logits *Node, targets []int) *Node {
	n := logits.Value.Rows
	if len(targets) != n {
		panic("autodiff: CrossEntropy target length mismatch")
	}
	cp := t.newInts(n)
	copy(cp, targets)
	targets = cp
	probs := t.newDense(n, logits.Value.Cols)
	var loss float64
	for i := 0; i < n; i++ {
		floats.Softmax(probs.Row(i), logits.Value.Row(i))
		p := probs.At(i, targets[i])
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(p)
	}
	v := t.newDense(1, 1)
	v.Set(0, 0, loss/float64(n))
	return t.unary(logits, v, func(out *Node) {
		g := logits.ensureGrad()
		scale := out.grad.At(0, 0) / float64(n)
		for i := 0; i < n; i++ {
			gr := g.Row(i)
			pr := probs.Row(i)
			for j := range gr {
				delta := 0.0
				if j == targets[i] {
					delta = 1
				}
				gr[j] += scale * (pr[j] - delta)
			}
		}
	})
}
