package ner

import (
	"math"
	"math/rand"

	"anchor/internal/autodiff"
	"anchor/internal/embedding"
	"anchor/internal/floats"
	"anchor/internal/nn"
)

// TrainReference is the oracle Train is checked against: the same model
// over the same lockstep batch schedule, recorded through the unfused op
// composition of every LSTM step on a fresh tape per minibatch, with
// validation losses from one sentence at a time.
func TrainReference(emb *embedding.Embedding, ds *Dataset, cfg Config) *Tagger {
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Tagger{
		emb: emb,
		bi:  nn.NewBiLSTM("bi", emb.Dim(), cfg.Hidden, rng),
		out: nn.NewLinear("out", 2*cfg.Hidden, NumTags, rng),
	}
	if cfg.UseCRF {
		m.crf = nn.NewCRF("crf", NumTags, rng)
	}
	params := append(m.bi.Params(), m.out.Params()...)
	if m.crf != nil {
		params = append(params, m.crf.Params()...)
	}
	opt := nn.NewSGD(cfg.LR)

	lengths := make([]int, len(ds.Train))
	for i, ex := range ds.Train {
		lengths[i] = len(ex.Tokens)
	}
	batches := nn.LengthBatches(lengths, cfg.Batch)
	order := make([]int, len(batches))
	for i := range order {
		order[i] = i
	}
	bestVal := 1e30
	sincePlateau := 0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		for _, bi := range order {
			batch := batches[bi]
			tp := autodiff.NewArenaTape()
			tp.Workers = 1
			emissions := m.emissionsReference(tp, ds.Train, batch)
			b, n := len(batch), len(ds.Train[batch[0]].Tokens)
			var loss *autodiff.Node
			if m.crf != nil {
				for bi, i := range batch {
					idx := make([]int, n)
					for t := range idx {
						idx[t] = t*b + bi
					}
					nll := m.crf.NegLogLikelihood(tp, tp.GatherRows(emissions, idx), ds.Train[i].Tags)
					if loss == nil {
						loss = nll
					} else {
						loss = tp.Add(loss, nll)
					}
				}
				loss = tp.Scale(loss, 1/float64(b*n))
			} else {
				targets := make([]int, n*b)
				for bi, i := range batch {
					for t, tag := range ds.Train[i].Tags {
						targets[t*b+bi] = tag
					}
				}
				loss = tp.CrossEntropy(emissions, targets)
			}
			tp.Backward(loss)
			opt.Step(params)
		}
		if epoch == cfg.Epochs-1 {
			break
		}
		val := m.valLossReference(ds.Val)
		if val < bestVal-1e-4 {
			bestVal = val
			sincePlateau = 0
		} else {
			sincePlateau++
			if sincePlateau >= cfg.Patience {
				opt.LR *= cfg.AnnealFactor
				sincePlateau = 0
			}
		}
	}
	return m
}

// stepReference is one LSTM timestep through the unfused composition
// LSTMStep replaces.
func stepReference(tp *autodiff.Tape, l *nn.LSTM, x, h, c *autodiff.Node) (hNew, cNew *autodiff.Node) {
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

// emissionsReference is emissionsBatch through the unfused composition:
// per-timestep steps in each direction, then ConcatCols and ConcatRows.
func (m *Tagger) emissionsReference(tp *autodiff.Tape, examples []Example, batch []int) *autodiff.Node {
	n := len(examples[batch[0]].Tokens)
	xs := make([]*autodiff.Node, n)
	ids := make([]int32, len(batch))
	for t := 0; t < n; t++ {
		for bi, i := range batch {
			ids[bi] = examples[i].Tokens[t]
		}
		xs[t] = tp.LookupRows(m.emb.Vectors, ids)
	}
	hf := make([]*autodiff.Node, n)
	hb := make([]*autodiff.Node, n)
	var h, c *autodiff.Node
	for t, x := range xs {
		h, c = stepReference(tp, m.bi.Fwd, x, h, c)
		hf[t] = h
	}
	h, c = nil, nil
	for t := n - 1; t >= 0; t-- {
		h, c = stepReference(tp, m.bi.Bwd, xs[t], h, c)
		hb[t] = h
	}
	cat := make([]*autodiff.Node, n)
	for t := range xs {
		cat[t] = tp.ConcatCols(hf[t], hb[t])
	}
	return m.out.Forward(tp, tp.ConcatRows(cat...))
}

// valLossReference is valLoss one sentence at a time through the unfused
// composition: the mean of the per-sentence losses in example order.
func (m *Tagger) valLossReference(val []Example) float64 {
	var total float64
	count := 0
	probs := make([]float64, NumTags)
	for i, ex := range val {
		if len(ex.Tokens) == 0 {
			continue
		}
		tp := autodiff.NewArenaTape()
		em := m.emissionsReference(tp, val, []int{i}).Value
		if m.crf != nil {
			total += m.crf.NLLValue(em, ex.Tags)
		} else {
			var loss float64
			for t, tag := range ex.Tags {
				floats.Softmax(probs, em.Row(t))
				loss -= math.Log(max(probs[tag], 1e-12))
			}
			total += loss / float64(len(ex.Tokens))
		}
		count++
	}
	if count == 0 {
		return 0
	}
	return total / float64(count)
}
