package autodiff

import (
	"math"

	"anchor/internal/floats"
	"anchor/internal/matrix"
)

// Fused ops: single tape nodes that replace multi-node compositions on the
// hot paths of the downstream trainers (LSTM steps, CNN pooling, embedding
// lookup). Each op is bitwise identical to the unfused composition named
// in its comment: it performs the same floating-point operations in the
// same per-element order, and its backward pass accumulates into each
// gradient element exactly the values the unfused chain would, in the same
// order. The equality is enforced by tests (fused_test.go, and the
// trainer-level tests of the nn, ner and sentiment packages), which keep
// the unfused compositions as oracles.

// LookupRows stacks rows of src selected by idx into a constant node — the
// fused embedding-lookup/stack op. src is raw storage (typically a frozen
// embedding matrix), not a tape value, so no gradients flow; the stacked
// value is arena-backed, making per-minibatch token gathering
// allocation-free.
func (t *Tape) LookupRows(src *matrix.Dense, idx []int32) *Node {
	v := t.newDense(len(idx), src.Cols)
	for r, id := range idx {
		copy(v.Row(r), src.Row(int(id)))
	}
	n := t.newNode()
	n.Value = v
	return t.add(n)
}

// LSTMPreact returns x·wx + h·wh + b (b broadcast over rows): the packed
// LSTM gate pre-activations, fused from
//
//	AddRowVec(Add(MatMul(x, wx), MatMul(h, wh)), b)
//
// into one node. Forward adds per element in the same order ((x·wx + h·wh)
// + b), and backward feeds each operand the same product the unfused chain
// would (the intermediate grads of the chain are single adds from zero, so
// they equal the output grad bitwise).
func (t *Tape) LSTMPreact(x, h, wx, wh, b *Node) *Node {
	rows, cols := x.Value.Rows, wx.Value.Cols
	v := t.newDense(rows, cols)
	matrix.MulInto(v, x.Value, wx.Value, t.Workers)
	s := t.newDense(rows, cols)
	matrix.MulInto(s, h.Value, wh.Value, t.Workers)
	v.Add(s)
	for i := 0; i < rows; i++ {
		row := v.Row(i)
		brow := b.Value.Row(0)
		for j := range row {
			row[j] += brow[j]
		}
	}
	out := t.newNode()
	out.Value = v
	out.needs = x.needs || h.needs || wx.needs || wh.needs || b.needs
	if out.needs {
		out.back = func(out *Node) {
			tp := out.tape
			if b.needs {
				g := b.ensureGrad().Row(0)
				for i := 0; i < rows; i++ {
					ogr := out.grad.Row(i)
					for j := range g {
						g[j] += ogr[j]
					}
				}
			}
			if h.needs {
				sc := tp.newDense(h.Value.Rows, h.Value.Cols)
				matrix.MulABTInto(sc, out.grad, wh.Value, tp.Workers)
				h.ensureGrad().Add(sc)
			}
			if wh.needs {
				sc := tp.newDense(wh.Value.Rows, wh.Value.Cols)
				matrix.MulATBInto(sc, h.Value, out.grad, tp.Workers)
				wh.ensureGrad().Add(sc)
			}
			if x.needs {
				sc := tp.newDense(x.Value.Rows, x.Value.Cols)
				matrix.MulABTInto(sc, out.grad, wx.Value, tp.Workers)
				x.ensureGrad().Add(sc)
			}
			if wx.needs {
				sc := tp.newDense(wx.Value.Rows, wx.Value.Cols)
				matrix.MulATBInto(sc, x.Value, out.grad, tp.Workers)
				wx.ensureGrad().Add(sc)
			}
		}
	}
	return t.add(out)
}

// GateActivations applies the LSTM gate nonlinearities to packed
// pre-activations (rows-by-4h, gate order [input, forget, cell, output]):
// sigmoid on the input/forget/output thirds, tanh on the cell third. Fused
// from four SliceCols + Sigmoid/Tanh pairs into one node; the derivative
// uses the stored activation (s·(1−s), 1−th²), which is bitwise what the
// unfused ops recompute.
func (t *Tape) GateActivations(gates *Node, h int) *Node {
	rows, cols := gates.Value.Rows, gates.Value.Cols
	if cols != 4*h {
		panic("autodiff: GateActivations expects 4h columns")
	}
	v := t.newDense(rows, cols)
	for i := 0; i < rows; i++ {
		gr := gates.Value.Row(i)
		vr := v.Row(i)
		for j, x := range gr {
			if j >= 2*h && j < 3*h {
				vr[j] = math.Tanh(x)
			} else {
				vr[j] = 1 / (1 + math.Exp(-x))
			}
		}
	}
	return t.unary(gates, v, func(out *Node) {
		g := gates.ensureGrad()
		for i := 0; i < rows; i++ {
			ogr := out.grad.Row(i)
			vr := out.Value.Row(i)
			gr := g.Row(i)
			for j := range gr {
				var d float64
				if j >= 2*h && j < 3*h {
					d = 1 - vr[j]*vr[j]
				} else {
					d = vr[j] * (1 - vr[j])
				}
				gr[j] += ogr[j] * d
			}
		}
	})
}

// LSTMCell computes the cell update from activated gates act (rows-by-4h,
// order [i f g o]) and the previous cell state cPrev (rows-by-h):
//
//	cNew = f ⊙ cPrev + i ⊙ g
//	hNew = o ⊙ tanh(cNew)
//
// fused from Add(Mul(f, cPrev), Mul(i, g)) and Mul(o, Tanh(cNew)). It
// returns two nodes; cNew is recorded first so hNew's backward (which
// feeds cNew's gradient) runs before cNew's, exactly as in the unfused
// chain.
func (t *Tape) LSTMCell(act *Node, h int, cPrev *Node) (hNew, cNew *Node) {
	rows := act.Value.Rows
	if act.Value.Cols != 4*h || cPrev.Value.Rows != rows || cPrev.Value.Cols != h {
		panic("autodiff: LSTMCell shape mismatch")
	}
	cv := t.newDense(rows, h)
	hv := t.newDense(rows, h)
	th := t.newFloats(rows * h)
	for b := 0; b < rows; b++ {
		av := act.Value.Row(b)
		cp := cPrev.Value.Row(b)
		cr := cv.Row(b)
		hr := hv.Row(b)
		for j := 0; j < h; j++ {
			c := av[h+j]*cp[j] + av[j]*av[2*h+j]
			cr[j] = c
			tj := math.Tanh(c)
			th[b*h+j] = tj
			hr[j] = av[3*h+j] * tj
		}
	}
	needs := act.needs || cPrev.needs
	cNode := t.newNode()
	cNode.Value = cv
	cNode.needs = needs
	if needs {
		cNode.back = func(out *Node) {
			for b := 0; b < rows; b++ {
				cg := out.grad.Row(b)
				av := act.Value.Row(b)
				cp := cPrev.Value.Row(b)
				var agr []float64
				if act.needs {
					agr = act.ensureGrad().Row(b)
				}
				var cpg []float64
				if cPrev.needs {
					cpg = cPrev.ensureGrad().Row(b)
				}
				for j := 0; j < h; j++ {
					cgj := cg[j]
					if agr != nil {
						agr[j] += cgj * av[2*h+j] // i ← cg·g
						agr[2*h+j] += cgj * av[j] // g ← cg·i
						agr[h+j] += cgj * cp[j]   // f ← cg·cPrev
					}
					if cpg != nil {
						cpg[j] += cgj * av[h+j] // cPrev ← cg·f
					}
				}
			}
		}
	}
	t.add(cNode)

	hNode := t.newNode()
	hNode.Value = hv
	hNode.needs = needs
	if needs {
		hNode.back = func(out *Node) {
			cg := cNode.ensureGrad()
			for b := 0; b < rows; b++ {
				hg := out.grad.Row(b)
				av := act.Value.Row(b)
				cgr := cg.Row(b)
				var agr []float64
				if act.needs {
					agr = act.ensureGrad().Row(b)
				}
				for j := 0; j < h; j++ {
					tj := th[b*h+j]
					if agr != nil {
						agr[3*h+j] += hg[j] * tj // o ← hg·tanh(c)
					}
					cgr[j] += (hg[j] * av[3*h+j]) * (1 - tj*tj)
				}
			}
		}
	}
	t.add(hNode)
	return hNode, cNode
}

// LSTMStep fuses one full LSTM timestep — pre-activation, gate
// nonlinearities, and cell update — into a single op producing the two
// nodes (hNew, cNew):
//
//	gates = x·wx + h·wh + b
//	[i f g o] = [σ σ tanh σ](gates)
//	cNew = f ⊙ cPrev + i ⊙ g
//	hNew = o ⊙ tanh(cNew)
//
// Unlike the composition LSTMPreact → GateActivations → LSTMCell, the
// pre-activation and activation intermediates here are tape scratch, not
// nodes: the backward pass writes the activation gradient directly
// (each element receives exactly one contribution, so the unfused chain's
// zeroed accumulators collapse to plain stores) and applies the gate
// derivative in place. Bitwise identical to the unfused chain.
func (t *Tape) LSTMStep(x, h, cPrev, wx, wh, b *Node, hid int) (hNew, cNew *Node) {
	rows, h4 := x.Value.Rows, 4*hid
	if wx.Value.Cols != h4 || cPrev.Value.Cols != hid {
		panic("autodiff: LSTMStep shape mismatch")
	}
	// gates = (x·wx + h·wh) + b, accumulated in the unfused chain's order.
	gates := t.newDense(rows, h4)
	matrix.MulInto(gates, x.Value, wx.Value, t.Workers)
	s := t.newDense(rows, h4)
	matrix.MulInto(s, h.Value, wh.Value, t.Workers)
	gates.Add(s)
	act := t.newDense(rows, h4)
	cv := t.newDense(rows, hid)
	hv := t.newDense(rows, hid)
	th := t.newFloats(rows * hid)
	brow := b.Value.Row(0)
	for r := 0; r < rows; r++ {
		gr := gates.Row(r)
		ar := act.Row(r)
		for j, g := range gr {
			g += brow[j]
			if j >= 2*hid && j < 3*hid {
				ar[j] = math.Tanh(g)
			} else {
				ar[j] = 1 / (1 + math.Exp(-g))
			}
		}
		cp := cPrev.Value.Row(r)
		cr := cv.Row(r)
		hr := hv.Row(r)
		for j := 0; j < hid; j++ {
			c := ar[hid+j]*cp[j] + ar[j]*ar[2*hid+j]
			cr[j] = c
			tj := math.Tanh(c)
			th[r*hid+j] = tj
			hr[j] = ar[3*hid+j] * tj
		}
	}

	needs := x.needs || h.needs || cPrev.needs || wx.needs || wh.needs || b.needs
	cNode := t.newNode()
	cNode.Value = cv
	cNode.needs = needs
	hNode := t.newNode()
	hNode.Value = hv
	hNode.needs = needs
	if needs {
		// actGrad is shared between the two backward closures: the h-side
		// writes the output-gate quarter, the c-side the rest, then the
		// c-side (which runs last: cNode precedes hNode on the tape) turns
		// it into the pre-activation gradient and back-propagates it.
		var actGrad *matrix.Dense
		cNode.back = func(out *Node) {
			tp := out.tape
			if actGrad == nil {
				// hNew was never consumed: the output gate receives no
				// gradient (as in the unfused chain's zeroed accumulators).
				actGrad = tp.newZeroDense(rows, h4)
			}
			// Write dgates directly: the activation gradient of each gate
			// times its nonlinearity derivative, the same two products in
			// the same order as the unfused Mul → Sigmoid/Tanh chain. The
			// output-gate quarter was pre-filled by hNode's backward; it
			// still needs its derivative factor.
			for r := 0; r < rows; r++ {
				cg := out.grad.Row(r)
				ar := act.Row(r)
				agr := actGrad.Row(r)
				cp := cPrev.Value.Row(r)
				for j := 0; j < hid; j++ {
					cgj := cg[j]
					i, f, g, o := ar[j], ar[hid+j], ar[2*hid+j], ar[3*hid+j]
					agr[j] = (cgj * g) * (i * (1 - i))         // i ← cg·g · σ'
					agr[2*hid+j] = (cgj * i) * (1 - g*g)       // g ← cg·i · tanh'
					agr[hid+j] = (cgj * cp[j]) * (f * (1 - f)) // f ← cg·cPrev · σ'
					agr[3*hid+j] *= o * (1 - o)                // o: deriv of the pre-filled grad
				}
				if cPrev.needs {
					cpg := cPrev.ensureGrad().Row(r)
					for j := 0; j < hid; j++ {
						cpg[j] += cg[j] * ar[hid+j] // cPrev ← cg·f
					}
				}
			}
			// Pre-activation backward: same products and adds as the
			// unfused MatMul/Add/AddRowVec chain.
			if b.needs {
				g := b.ensureGrad().Row(0)
				for r := 0; r < rows; r++ {
					floats.Add(g, actGrad.Row(r))
				}
			}
			if h.needs {
				sc := tp.newDense(h.Value.Rows, h.Value.Cols)
				matrix.MulABTInto(sc, actGrad, wh.Value, tp.Workers)
				h.ensureGrad().Add(sc)
			}
			if wh.needs {
				sc := tp.newDense(wh.Value.Rows, wh.Value.Cols)
				matrix.MulATBInto(sc, h.Value, actGrad, tp.Workers)
				wh.ensureGrad().Add(sc)
			}
			if x.needs {
				sc := tp.newDense(x.Value.Rows, x.Value.Cols)
				matrix.MulABTInto(sc, actGrad, wx.Value, tp.Workers)
				x.ensureGrad().Add(sc)
			}
			if wx.needs {
				sc := tp.newDense(wx.Value.Rows, wx.Value.Cols)
				matrix.MulATBInto(sc, x.Value, actGrad, tp.Workers)
				wx.ensureGrad().Add(sc)
			}
		}
		hNode.back = func(out *Node) {
			actGrad = out.tape.newDense(rows, h4)
			cg := cNode.ensureGrad()
			for r := 0; r < rows; r++ {
				hg := out.grad.Row(r)
				ar := act.Row(r)
				agr := actGrad.Row(r)
				cgr := cg.Row(r)
				for j := 0; j < hid; j++ {
					tj := th[r*hid+j]
					agr[3*hid+j] = hg[j] * tj // o ← hg·tanh(c)
					cgr[j] += (hg[j] * ar[3*hid+j]) * (1 - tj*tj)
				}
			}
		}
	}
	t.add(cNode)
	t.add(hNode)
	return hNode, cNode
}

// StackBiRows interleaves the per-timestep forward and backward hidden
// states of a bidirectional recurrence into one (T*B)-by-(Cf+Cb) node:
// row t*B+r is [fwd[t] row r, bwd[t] row r]. Fused from the per-timestep
// ConcatCols + final ConcatRows chain (whose intermediate grads are single
// adds from zero), so values and gradients are bitwise identical to it.
func (t *Tape) StackBiRows(fwd, bwd []*Node) *Node {
	steps := len(fwd)
	rows := fwd[0].Value.Rows
	cf, cb := fwd[0].Value.Cols, bwd[0].Value.Cols
	v := t.newDense(steps*rows, cf+cb)
	needs := false
	for i := 0; i < steps; i++ {
		needs = needs || fwd[i].needs || bwd[i].needs
		for r := 0; r < rows; r++ {
			dst := v.Row(i*rows + r)
			copy(dst[:cf], fwd[i].Value.Row(r))
			copy(dst[cf:], bwd[i].Value.Row(r))
		}
	}
	out := t.newNode()
	out.Value = v
	out.needs = needs
	if needs {
		out.back = func(out *Node) {
			for i := 0; i < steps; i++ {
				if fwd[i].needs {
					g := fwd[i].ensureGrad()
					for r := 0; r < rows; r++ {
						floats.Add(g.Row(r), out.grad.Row(i*rows + r)[:cf])
					}
				}
				if bwd[i].needs {
					g := bwd[i].ensureGrad()
					for r := 0; r < rows; r++ {
						floats.Add(g.Row(r), out.grad.Row(i*rows + r)[cf:])
					}
				}
			}
		}
	}
	return t.add(out)
}

// MaxPoolSegRows max-pools every consecutive segment of seg rows into one
// output row: a (n·seg)-by-c input becomes n-by-c, with gradients routed
// to the argmax rows (first row on ties). Fused from the per-segment
// SliceRows + MaxPoolRows + ConcatRows composition used by the batched
// CNN.
func (t *Tape) MaxPoolSegRows(a *Node, seg int) *Node {
	rows, cols := a.Value.Rows, a.Value.Cols
	if seg <= 0 || rows%seg != 0 {
		panic("autodiff: MaxPoolSegRows segment size must divide rows")
	}
	n := rows / seg
	v := t.newDense(n, cols)
	arg := t.newInts(n * cols)
	for s := 0; s < n; s++ {
		base := s * seg
		for j := 0; j < cols; j++ {
			best, bi := a.Value.At(base, j), base
			for i := base + 1; i < base+seg; i++ {
				if x := a.Value.At(i, j); x > best {
					best, bi = x, i
				}
			}
			v.Set(s, j, best)
			arg[s*cols+j] = bi
		}
	}
	return t.unary(a, v, func(out *Node) {
		g := a.ensureGrad()
		for s := 0; s < n; s++ {
			for j := 0; j < cols; j++ {
				i := arg[s*cols+j]
				g.Set(i, j, g.At(i, j)+out.grad.At(s, j))
			}
		}
	})
}
