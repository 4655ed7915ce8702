// Package nn builds the downstream model zoo of the paper on top of the
// autodiff engine: linear layers, LSTM/BiLSTM, 1-D convolutions (Kim 2014
// style), a linear-chain CRF, and the SGD/Adam optimizers used to train
// the sentiment and NER models.
//
// Sequence models run one path: lockstep minibatches of equal-length
// sentences through the fused ops (LSTMStep, StackBiRows,
// MaxPoolSegRows). The generic op compositions they replace, and the
// per-sentence forwards, live in the tests as the oracles those paths
// are checked against bit for bit.
package nn

import (
	"math"
	"math/rand"
	"sort"

	"anchor/internal/autodiff"
	"anchor/internal/matrix"
)

// Module is anything exposing trainable parameters.
type Module interface {
	Params() []*autodiff.Param
}

// XavierInit fills a parameter matrix with the Glorot uniform
// initialization for the given fan-in and fan-out.
func XavierInit(m *matrix.Dense, fanIn, fanOut int, rng *rand.Rand) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range m.Data {
		m.Data[i] = (2*rng.Float64() - 1) * limit
	}
}

// Linear is a fully connected layer y = x·W + b.
type Linear struct {
	W, B *autodiff.Param
}

// NewLinear returns a Glorot-initialized linear layer.
func NewLinear(name string, in, out int, rng *rand.Rand) *Linear {
	w := matrix.NewDense(in, out)
	XavierInit(w, in, out, rng)
	return &Linear{
		W: autodiff.NewParam(name+".W", w),
		B: autodiff.NewParam(name+".b", matrix.NewDense(1, out)),
	}
}

// Forward applies the layer to x (n-by-in), returning n-by-out.
func (l *Linear) Forward(tp *autodiff.Tape, x *autodiff.Node) *autodiff.Node {
	return tp.AddRowVec(tp.MatMul(x, tp.Use(l.W)), tp.Use(l.B))
}

// Params implements Module.
func (l *Linear) Params() []*autodiff.Param { return []*autodiff.Param{l.W, l.B} }

// LSTM is a single-layer LSTM cell with input size In and hidden size H.
// Gate order in the packed weight matrices is [input, forget, cell, output].
type LSTM struct {
	In, H int
	Wx    *autodiff.Param // In x 4H
	Wh    *autodiff.Param // H x 4H
	B     *autodiff.Param // 1 x 4H
}

// NewLSTM returns a Glorot-initialized LSTM with forget-gate bias 1.
func NewLSTM(name string, in, hidden int, rng *rand.Rand) *LSTM {
	wx := matrix.NewDense(in, 4*hidden)
	wh := matrix.NewDense(hidden, 4*hidden)
	XavierInit(wx, in, 4*hidden, rng)
	XavierInit(wh, hidden, 4*hidden, rng)
	b := matrix.NewDense(1, 4*hidden)
	for j := hidden; j < 2*hidden; j++ {
		b.Set(0, j, 1) // forget gate bias
	}
	return &LSTM{
		In: in, H: hidden,
		Wx: autodiff.NewParam(name+".Wx", wx),
		Wh: autodiff.NewParam(name+".Wh", wh),
		B:  autodiff.NewParam(name+".b", b),
	}
}

// Params implements Module.
func (l *LSTM) Params() []*autodiff.Param { return []*autodiff.Param{l.Wx, l.Wh, l.B} }

// step advances the cell one lockstep timestep through the fused
// LSTMStep op, from the zero state when h is nil. wx, wh, b are the
// parameter nodes, hoisted by the caller so one Use per parameter serves
// the whole sequence.
func (l *LSTM) step(tp *autodiff.Tape, x, h, c, wx, wh, b *autodiff.Node) (hNew, cNew *autodiff.Node) {
	if h == nil {
		h = tp.NewConstBuf(x.Value.Rows, l.H)
		c = tp.NewConstBuf(x.Value.Rows, l.H)
	}
	return tp.LSTMStep(x, h, c, wx, wh, b, l.H)
}

// RunSeq unrolls the cell over per-timestep input batches xs (each
// B-by-In, one node per timestep of a length-bucketed minibatch) and
// returns the per-timestep hidden-state nodes (each B-by-H). Each
// timestep is one fused LSTMStep op, bitwise identical in values and
// gradients to the generic op composition it replaces.
func (l *LSTM) RunSeq(tp *autodiff.Tape, xs []*autodiff.Node) []*autodiff.Node {
	outs := make([]*autodiff.Node, len(xs))
	wx, wh, b := tp.Use(l.Wx), tp.Use(l.Wh), tp.Use(l.B)
	var h, c *autodiff.Node
	for t, x := range xs {
		h, c = l.step(tp, x, h, c, wx, wh, b)
		outs[t] = h
	}
	return outs
}

// RunSeqReverse is RunSeq right-to-left, with hidden states returned in
// the original (left-to-right) timestep order.
func (l *LSTM) RunSeqReverse(tp *autodiff.Tape, xs []*autodiff.Node) []*autodiff.Node {
	outs := make([]*autodiff.Node, len(xs))
	wx, wh, b := tp.Use(l.Wx), tp.Use(l.Wh), tp.Use(l.B)
	var h, c *autodiff.Node
	for t := len(xs) - 1; t >= 0; t-- {
		h, c = l.step(tp, xs[t], h, c, wx, wh, b)
		outs[t] = h
	}
	return outs
}

// BiLSTM runs a forward and a backward LSTM over the sequence and
// concatenates their hidden states per timestep (the paper's NER encoder,
// after Akbik et al. 2018).
type BiLSTM struct {
	Fwd, Bwd *LSTM
}

// NewBiLSTM returns a bidirectional LSTM; the output size is 2*hidden.
func NewBiLSTM(name string, in, hidden int, rng *rand.Rand) *BiLSTM {
	return &BiLSTM{
		Fwd: NewLSTM(name+".fwd", in, hidden, rng),
		Bwd: NewLSTM(name+".bwd", in, hidden, rng),
	}
}

// ForwardSeq runs both directions over per-timestep batches xs (each
// B-by-In) and returns the hidden states stacked as (T*B)-by-2H, with row
// t*B+b holding sentence b at timestep t. Each sentence's rows are
// bitwise what the sentence alone would produce.
func (b *BiLSTM) ForwardSeq(tp *autodiff.Tape, xs []*autodiff.Node) *autodiff.Node {
	return tp.StackBiRows(b.Fwd.RunSeq(tp, xs), b.Bwd.RunSeqReverse(tp, xs))
}

// Params implements Module.
func (b *BiLSTM) Params() []*autodiff.Param {
	return append(b.Fwd.Params(), b.Bwd.Params()...)
}

// Conv1D is a bank of 1-D convolutions over token sequences with multiple
// filter widths, as in Kim (2014): each width w has Out filters over
// windows of w consecutive token vectors; outputs are max-pooled over time
// and concatenated (len(Widths)*Out features).
type Conv1D struct {
	Widths []int
	In     int
	Out    int
	W      []*autodiff.Param // per width: (w*In) x Out
	B      []*autodiff.Param // per width: 1 x Out
}

// NewConv1D returns a Glorot-initialized convolution bank.
func NewConv1D(name string, widths []int, in, out int, rng *rand.Rand) *Conv1D {
	c := &Conv1D{Widths: widths, In: in, Out: out}
	for _, w := range widths {
		wm := matrix.NewDense(w*in, out)
		XavierInit(wm, w*in, out, rng)
		c.W = append(c.W, autodiff.NewParam(name+".W", wm))
		c.B = append(c.B, autodiff.NewParam(name+".b", matrix.NewDense(1, out)))
	}
	return c
}

// Params implements Module.
func (c *Conv1D) Params() []*autodiff.Param {
	out := make([]*autodiff.Param, 0, 2*len(c.W))
	out = append(out, c.W...)
	out = append(out, c.B...)
	return out
}

// ForwardBatch maps a length-bucketed minibatch of batch sequences, each n
// tokens long, to a batch-by-(len(Widths)*Out) feature matrix in lockstep:
// one window-stack, one matrix product, and one segmented max-pool
// (MaxPoolSegRows) per filter width for the whole batch. tok(b, t) returns
// the (frozen) embedding of token t of sequence b; windows are constants,
// so no gradient flows into them. Sequences shorter than a width use the
// one window they have, zero-padded to the width. Each sequence's
// features are bitwise what the sequence alone would produce.
func (c *Conv1D) ForwardBatch(tp *autodiff.Tape, tok func(b, t int) []float64, batch, n int) *autodiff.Node {
	var pooled []*autodiff.Node
	for wi, w := range c.Widths {
		eff := w
		if n < eff {
			eff = n
		}
		perSeq := n - eff + 1
		// Zero-filled buffer: when eff < w the tail of each flattened
		// window stays zero (the padding).
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
		pooled = append(pooled, tp.MaxPoolSegRows(conv, perSeq))
	}
	return tp.ConcatCols(pooled...)
}

// LengthBatches is the deterministic schedule behind lockstep sequence
// training: it groups sequence indices by exact length (ascending) —
// preserving original order within a group — and slices each group into
// minibatches of at most batch indices. Zero-length sequences are
// dropped. The schedule is a pure function of (lengths, batch), so every
// trainer sharing it (and its test oracles) sees identical batches.
func LengthBatches(lengths []int, batch int) [][]int {
	if batch <= 0 {
		batch = 1
	}
	byLen := map[int][]int{}
	var ls []int
	for i, n := range lengths {
		if n == 0 {
			continue
		}
		if _, ok := byLen[n]; !ok {
			ls = append(ls, n)
		}
		byLen[n] = append(byLen[n], i)
	}
	sort.Ints(ls)
	var out [][]int
	for _, n := range ls {
		idx := byLen[n]
		for s := 0; s < len(idx); s += batch {
			e := s + batch
			if e > len(idx) {
				e = len(idx)
			}
			out = append(out, idx[s:e:e])
		}
	}
	return out
}
