package nn

import (
	"anchor/internal/autodiff"
	"anchor/internal/floats"
	"anchor/internal/matrix"
)

// The generic op compositions the fused sequence paths replace, and the
// per-sentence forwards, kept as the oracles the fused paths are checked
// against bit for bit.

// Step advances the cell one timestep through the unfused composition. x
// is B-by-In; h and c are B-by-H (nil for the initial zero state).
func (l *LSTM) Step(tp *autodiff.Tape, x, h, c *autodiff.Node) (hNew, cNew *autodiff.Node) {
	if h == nil {
		h = tp.NewConstBuf(x.Value.Rows, l.H)
		c = tp.NewConstBuf(x.Value.Rows, l.H)
	}
	gates := tp.AddRowVec(tp.Add(tp.MatMul(x, tp.Use(l.Wx)), tp.MatMul(h, tp.Use(l.Wh))), tp.Use(l.B))
	i := tp.Sigmoid(tp.SliceCols(gates, 0, l.H))
	f := tp.Sigmoid(tp.SliceCols(gates, l.H, 2*l.H))
	g := tp.Tanh(tp.SliceCols(gates, 2*l.H, 3*l.H))
	o := tp.Sigmoid(tp.SliceCols(gates, 3*l.H, 4*l.H))
	cNew = tp.Add(tp.Mul(f, c), tp.Mul(i, g))
	hNew = tp.Mul(o, tp.Tanh(cNew))
	return hNew, cNew
}

// Run unrolls the cell over one sequence (seq-by-In) and returns the
// hidden states stacked as seq-by-H.
func (l *LSTM) Run(tp *autodiff.Tape, seq *autodiff.Node) *autodiff.Node {
	n := seq.Value.Rows
	var h, c *autodiff.Node
	outs := make([]*autodiff.Node, n)
	for t := 0; t < n; t++ {
		h, c = l.Step(tp, tp.SliceRows(seq, t, t+1), h, c)
		outs[t] = h
	}
	return tp.ConcatRows(outs...)
}

// RunReverse unrolls the cell right-to-left and returns hidden states in
// the original (left-to-right) order.
func (l *LSTM) RunReverse(tp *autodiff.Tape, seq *autodiff.Node) *autodiff.Node {
	n := seq.Value.Rows
	var h, c *autodiff.Node
	outs := make([]*autodiff.Node, n)
	for t := n - 1; t >= 0; t-- {
		h, c = l.Step(tp, tp.SliceRows(seq, t, t+1), h, c)
		outs[t] = h
	}
	return tp.ConcatRows(outs...)
}

// Forward returns one sentence's seq-by-2H hidden states.
func (b *BiLSTM) Forward(tp *autodiff.Tape, seq *autodiff.Node) *autodiff.Node {
	return tp.ConcatCols(b.Fwd.Run(tp, seq), b.Bwd.RunReverse(tp, seq))
}

// forwardSeqReference is ForwardSeq through the unfused composition:
// per-timestep Step nodes, then ConcatCols and ConcatRows.
func (b *BiLSTM) forwardSeqReference(tp *autodiff.Tape, xs []*autodiff.Node) *autodiff.Node {
	hf := make([]*autodiff.Node, len(xs))
	hb := make([]*autodiff.Node, len(xs))
	var h, c *autodiff.Node
	for t, x := range xs {
		h, c = b.Fwd.Step(tp, x, h, c)
		hf[t] = h
	}
	h, c = nil, nil
	for t := len(xs) - 1; t >= 0; t-- {
		h, c = b.Bwd.Step(tp, xs[t], h, c)
		hb[t] = h
	}
	cat := make([]*autodiff.Node, len(xs))
	for t := range xs {
		cat[t] = tp.ConcatCols(hf[t], hb[t])
	}
	return tp.ConcatRows(cat...)
}

// Forward maps one seq-by-In sequence to a 1-by-(len(Widths)*Out)
// feature vector: convolution, ReLU, max-over-time pooling per width.
// Sequences shorter than a width reuse the largest possible window.
func (c *Conv1D) Forward(tp *autodiff.Tape, seq *autodiff.Node) *autodiff.Node {
	var pooled []*autodiff.Node
	n := seq.Value.Rows
	for wi, w := range c.Widths {
		eff := min(w, n)
		var windows []*autodiff.Node
		for s := 0; s+eff <= n; s++ {
			win := tp.Reshape(tp.SliceRows(seq, s, s+eff), 1, eff*c.In)
			if eff < w {
				// Zero-pad the flattened window to the filter width.
				win = tp.ConcatCols(win, tp.Const(matrix.NewDense(1, (w-eff)*c.In)))
			}
			windows = append(windows, win)
		}
		stacked := tp.ConcatRows(windows...)
		conv := tp.ReLU(tp.AddRowVec(tp.MatMul(stacked, tp.Use(c.W[wi])), tp.Use(c.B[wi])))
		pooled = append(pooled, tp.MaxPoolRows(conv))
	}
	return tp.ConcatCols(pooled...)
}

// forwardBatchReference is ForwardBatch with the per-sequence pooling
// composition MaxPoolSegRows replaces: SliceRows, MaxPoolRows and
// ConcatRows per filter width.
func (c *Conv1D) forwardBatchReference(tp *autodiff.Tape, tok func(b, t int) []float64, batch, n int) *autodiff.Node {
	var pooled []*autodiff.Node
	for wi, w := range c.Widths {
		eff := min(w, n)
		perSeq := n - eff + 1
		win := tp.NewConstBuf(batch*perSeq, w*c.In)
		for b := 0; b < batch; b++ {
			for s := 0; s < perSeq; s++ {
				dst := win.Value.Row(b*perSeq + s)
				for k := 0; k < eff; k++ {
					copy(dst[k*c.In:(k+1)*c.In], tok(b, s+k))
				}
			}
		}
		conv := tp.ReLU(tp.AddRowVec(tp.MatMul(win, tp.Use(c.W[wi])), tp.Use(c.B[wi])))
		segs := make([]*autodiff.Node, batch)
		for b := 0; b < batch; b++ {
			segs[b] = tp.MaxPoolRows(tp.SliceRows(conv, b*perSeq, (b+1)*perSeq))
		}
		pooled = append(pooled, tp.ConcatRows(segs...))
	}
	return tp.ConcatCols(pooled...)
}

// BruteForceLogZ computes the CRF's log partition function by enumerating
// all T^n tag sequences: the exponential oracle for the forward algorithm.
func (c *CRF) BruteForceLogZ(emissions *matrix.Dense) float64 {
	n := emissions.Rows
	var scores []float64
	seq := make([]int, n)
	var rec func(t int, acc float64)
	rec = func(t int, acc float64) {
		if t == n {
			scores = append(scores, acc+c.End.Value.At(0, seq[n-1]))
			return
		}
		for j := 0; j < c.T; j++ {
			s := acc + emissions.At(t, j)
			if t == 0 {
				s += c.Start.Value.At(0, j)
			} else {
				s += c.Trans.Value.At(seq[t-1], j)
			}
			seq[t] = j
			rec(t+1, s)
		}
	}
	rec(0, 0)
	return floats.LogSumExp(scores)
}
