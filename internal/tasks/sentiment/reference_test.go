package sentiment

import (
	"math/rand"
	"sort"

	"anchor/internal/autodiff"
	"anchor/internal/embedding"
	"anchor/internal/floats"
	"anchor/internal/matrix"
	"anchor/internal/nn"
)

// The oracles the trainers and the feature pipeline are checked against
// bit for bit: per-example feature loops, and trainers that record each
// minibatch on a fresh tape through the unfused op compositions.

// featuresReference computes Features with a per-example loop: ascending
// word ids, count-weighted accumulation — the exact per-element operation
// order of the blocked product.
func featuresReference(emb *embedding.Embedding, examples []Example) *matrix.Dense {
	out := matrix.NewDense(len(examples), emb.Dim())
	var ids []int32
	for i, ex := range examples {
		ids = append(ids[:0], ex.Tokens...)
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		row := out.Row(i)
		for s := 0; s < len(ids); {
			e := s
			for e < len(ids) && ids[e] == ids[s] {
				e++
			}
			floats.Axpy(float64(e-s), emb.Vector(int(ids[s])), row)
			s = e
		}
		if len(ex.Tokens) > 0 {
			floats.Scale(1/float64(len(ex.Tokens)), row)
		}
	}
	return out
}

// TrainLinearBOWReference trains the linear BOW model on
// featuresReference, with a fresh tape and fresh buffers per minibatch.
func TrainLinearBOWReference(emb *embedding.Embedding, ds *Dataset, cfg LinearBOWConfig) *LinearBOW {
	rng := rand.New(rand.NewSource(cfg.Seed))
	sampleRng := rng
	if cfg.SampleSeed != 0 {
		sampleRng = rand.New(rand.NewSource(cfg.SampleSeed))
	}
	lin := nn.NewLinear("bow", emb.Dim(), 2, rng)
	opt := nn.NewAdam(cfg.LR)
	x := featuresReference(emb, ds.Train)
	idx := make([]int, len(ds.Train))
	for i := range idx {
		idx[i] = i
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		sampleRng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		for s := 0; s < len(idx); s += cfg.Batch {
			e := min(s+cfg.Batch, len(idx))
			tp := autodiff.NewArenaTape()
			tp.Workers = 1
			bx := matrix.NewDense(e-s, emb.Dim())
			by := make([]int, e-s)
			for i := s; i < e; i++ {
				copy(bx.Row(i-s), x.Row(idx[i]))
				by[i-s] = ds.Train[idx[i]].Label
			}
			tp.Backward(tp.CrossEntropy(lin.Forward(tp, tp.Const(bx)), by))
			opt.Step(lin.Params())
		}
	}
	return &LinearBOW{Classifier: &Classifier{lin: lin}, emb: emb}
}

// TrainCNNReference trains the CNN over the same batch schedule, pooling
// each sequence with SliceRows and MaxPoolRows (the composition
// MaxPoolSegRows replaces), on a fresh tape per minibatch.
func TrainCNNReference(emb *embedding.Embedding, ds *Dataset, cfg CNNConfig) *CNN {
	rng := rand.New(rand.NewSource(cfg.Seed))
	conv := nn.NewConv1D("conv", cfg.Widths, emb.Dim(), cfg.Filters, rng)
	out := nn.NewLinear("out", len(cfg.Widths)*cfg.Filters, 2, rng)
	params := append(conv.Params(), out.Params()...)
	opt := nn.NewAdam(cfg.LR)
	dropRng := rand.New(rand.NewSource(cfg.Seed + 1))

	lengths := make([]int, len(ds.Train))
	for i, ex := range ds.Train {
		lengths[i] = len(ex.Tokens)
	}
	batches := nn.LengthBatches(lengths, cfg.Batch)
	order := make([]int, len(batches))
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		for _, bi := range order {
			batch := batches[bi]
			tp := autodiff.NewArenaTape()
			tp.Workers = 1
			n := len(ds.Train[batch[0]].Tokens)
			var pooled []*autodiff.Node
			for wi, w := range conv.Widths {
				eff := min(w, n)
				perSeq := n - eff + 1
				win := matrix.NewDense(len(batch)*perSeq, w*conv.In)
				for b, i := range batch {
					for s := 0; s < perSeq; s++ {
						for k := 0; k < eff; k++ {
							copy(win.Row(b*perSeq + s)[k*conv.In:(k+1)*conv.In], emb.Vector(int(ds.Train[i].Tokens[s+k])))
						}
					}
				}
				c := tp.ReLU(tp.AddRowVec(tp.MatMul(tp.Const(win), tp.Use(conv.W[wi])), tp.Use(conv.B[wi])))
				segs := make([]*autodiff.Node, len(batch))
				for b := range batch {
					segs[b] = tp.MaxPoolRows(tp.SliceRows(c, b*perSeq, (b+1)*perSeq))
				}
				pooled = append(pooled, tp.ConcatRows(segs...))
			}
			by := make([]int, len(batch))
			for b, i := range batch {
				by[b] = ds.Train[i].Label
			}
			dropped := tp.Dropout(tp.ConcatCols(pooled...), cfg.Dropout, dropRng)
			tp.Backward(tp.CrossEntropy(out.Forward(tp, dropped), by))
			opt.Step(params)
		}
	}
	return &CNN{emb: emb, conv: conv, out: out}
}
