package sentiment

import (
	"math/rand"

	"anchor/internal/autodiff"
	"anchor/internal/embedding"
	"anchor/internal/matrix"
	"anchor/internal/nn"
)

// LinearBOWConfig configures the paper's linear bag-of-words sentiment
// model (Appendix C.3.1): average the fixed word embeddings of a sentence
// and label it with a linear layer trained by Adam.
type LinearBOWConfig struct {
	LR     float64
	Epochs int
	Batch  int
	// Seed controls model initialization and batch order. The paper ties
	// this to the embedding seed; Appendix E.3 varies them independently.
	Seed int64
	// SampleSeed, when nonzero, decouples the batch-order randomness from
	// Seed (used by the Table 13 randomness-source experiment).
	SampleSeed int64
}

// DefaultLinearBOWConfig mirrors the paper's shared hyperparameters
// (Adam, batch 32) with epochs scaled to the synthetic datasets.
func DefaultLinearBOWConfig(seed int64) LinearBOWConfig {
	return LinearBOWConfig{LR: 0.01, Epochs: 40, Batch: 32, Seed: seed}
}

// Classifier is a trained linear softmax classifier over fixed feature
// rows: the layer the linear BOW model trains on averaged embeddings, and
// Fig11 on frozen BERT features.
type Classifier struct {
	lin *nn.Linear
}

// TrainClassifier trains a two-class linear classifier on fixed feature
// rows x (one per example; labels[i] is row i's class) with Adam over
// shuffled minibatches, recorded on one arena-backed tape that is reset
// between steps. cfg.Seed draws the initial weights and, unless
// cfg.SampleSeed is set, the batch order. Weights are bitwise identical
// for every worker count.
func TrainClassifier(x *matrix.Dense, labels []int, cfg LinearBOWConfig) *Classifier {
	rng := rand.New(rand.NewSource(cfg.Seed))
	sampleRng := rng
	if cfg.SampleSeed != 0 {
		sampleRng = rand.New(rand.NewSource(cfg.SampleSeed))
	}
	lin := nn.NewLinear("bow", x.Cols, 2, rng)
	opt := nn.NewAdam(cfg.LR)

	idx := make([]int, x.Rows)
	for i := range idx {
		idx[i] = i
	}
	tp := autodiff.NewArenaTape()
	tp.Workers = 1
	by := make([]int, cfg.Batch)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		sampleRng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		for s := 0; s < len(idx); s += cfg.Batch {
			e := min(s+cfg.Batch, len(idx))
			tp.Reset()
			bx := tp.NewConstBuf(e-s, x.Cols)
			for i := s; i < e; i++ {
				copy(bx.Value.Row(i-s), x.Row(idx[i]))
				by[i-s] = labels[idx[i]]
			}
			tp.Backward(tp.CrossEntropy(lin.Forward(tp, bx), by[:e-s]))
			opt.Step(lin.Params())
		}
	}
	return &Classifier{lin: lin}
}

// PredictFeatures returns the predicted labels for feature rows x (one
// per example, as in training). Grid cells use it to score the test split
// with a single blocked product per embedding.
func (c *Classifier) PredictFeatures(x *matrix.Dense) []int {
	tp := autodiff.NewArenaTape()
	logits := c.lin.Forward(tp, tp.Const(x)).Value
	out := make([]int, x.Rows)
	for i := range out {
		if logits.At(i, 1) > logits.At(i, 0) {
			out[i] = 1
		}
	}
	return out
}

// LinearBOW is a trained linear bag-of-words classifier over fixed
// embeddings.
type LinearBOW struct {
	*Classifier
	emb *embedding.Embedding
}

// TrainLinearBOW trains the model on ds.Train with fixed embeddings: a
// Classifier on the split's averaged-embedding features, which come from
// the dataset's cached count matrix as one blocked product (counts.go).
func TrainLinearBOW(emb *embedding.Embedding, ds *Dataset, cfg LinearBOWConfig) *LinearBOW {
	labels := make([]int, len(ds.Train))
	for i, ex := range ds.Train {
		labels[i] = ex.Label
	}
	x := Features(emb, ds.TrainCounts(), ds.Train, 1)
	return &LinearBOW{Classifier: TrainClassifier(x, labels, cfg), emb: emb}
}

// Predict returns the predicted labels for the examples, scored on their
// Features.
func (m *LinearBOW) Predict(examples []Example) []int {
	return m.PredictFeatures(Features(m.emb, countMatrix(examples), examples, 1))
}

// AccuracyOf returns the fraction of predictions matching the example
// labels.
func AccuracyOf(preds []int, examples []Example) float64 {
	correct := 0
	for i, ex := range examples {
		if preds[i] == ex.Label {
			correct++
		}
	}
	return float64(correct) / float64(len(examples))
}

// Accuracy returns classification accuracy on the examples.
func (m *LinearBOW) Accuracy(examples []Example) float64 {
	return AccuracyOf(m.Predict(examples), examples)
}

// TrainLinearBOWFineTuned trains the same model but lets gradients update
// a private copy of the embedding matrix (the Appendix E.4 fine-tuning
// study). It returns the trained model (holding the fine-tuned copy).
func TrainLinearBOWFineTuned(emb *embedding.Embedding, ds *Dataset, cfg LinearBOWConfig) *LinearBOW {
	rng := rand.New(rand.NewSource(cfg.Seed))
	lin := nn.NewLinear("bow", emb.Dim(), 2, rng)
	tuned := emb.Clone()
	embParam := autodiff.NewParam("emb", tuned.Vectors)
	params := append(lin.Params(), embParam)
	opt := nn.NewAdam(cfg.LR)

	idx := make([]int, len(ds.Train))
	for i := range idx {
		idx[i] = i
	}
	tp := autodiff.NewArenaTape()
	tp.Workers = 1
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		for s := 0; s < len(idx); s += cfg.Batch {
			e := min(s+cfg.Batch, len(idx))
			tp.Reset()
			embNode := tp.Use(embParam)
			rows := make([]*autodiff.Node, e-s)
			by := make([]int, e-s)
			for i := s; i < e; i++ {
				ex := ds.Train[idx[i]]
				toks := make([]int, len(ex.Tokens))
				for j, tk := range ex.Tokens {
					toks[j] = int(tk)
				}
				rows[i-s] = tp.MeanRows(tp.GatherRows(embNode, toks))
				by[i-s] = ex.Label
			}
			tp2 := tp.ConcatRows(rows...)
			loss := tp.CrossEntropy(lin.Forward(tp, tp2), by)
			tp.Backward(loss)
			opt.Step(params)
		}
	}
	return &LinearBOW{Classifier: &Classifier{lin: lin}, emb: tuned}
}

// CNNConfig configures the Kim (2014) convolutional sentence classifier
// used in the robustness appendix.
type CNNConfig struct {
	LR      float64
	Epochs  int
	Batch   int
	Widths  []int
	Filters int
	Dropout float64
	Seed    int64
}

// DefaultCNNConfig mirrors Appendix E.2's CNN (widths 3/4/5, 100 filters)
// scaled down for the synthetic datasets.
func DefaultCNNConfig(seed int64) CNNConfig {
	return CNNConfig{
		LR: 0.005, Epochs: 8, Batch: 16,
		Widths: []int{2, 3, 4}, Filters: 24, Dropout: 0.3, Seed: seed,
	}
}

// CNN is a trained convolutional sentence classifier over fixed embeddings.
type CNN struct {
	emb  *embedding.Embedding
	conv *nn.Conv1D
	out  *nn.Linear
}

// TrainCNN trains the CNN sentiment model with fixed embeddings:
// length-bucketed minibatches stepped in lockstep (one window stack,
// matrix product, and segmented max-pool per filter width per batch) on
// one arena-backed tape that is reset between steps. Weights are bitwise
// identical for every worker count.
func TrainCNN(emb *embedding.Embedding, ds *Dataset, cfg CNNConfig) *CNN {
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
	tp := autodiff.NewArenaTape()
	tp.Workers = 1
	by := make([]int, max(cfg.Batch, 1)) // LengthBatches treats Batch <= 0 as 1
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		for _, bi := range order {
			batch := batches[bi]
			tp.Reset()
			n := len(ds.Train[batch[0]].Tokens)
			tok := func(b, t int) []float64 {
				return emb.Vector(int(ds.Train[batch[b]].Tokens[t]))
			}
			feats := conv.ForwardBatch(tp, tok, len(batch), n)
			for b, i := range batch {
				by[b] = ds.Train[i].Label
			}
			dropped := tp.Dropout(feats, cfg.Dropout, dropRng)
			tp.Backward(tp.CrossEntropy(out.Forward(tp, dropped), by[:len(batch)]))
			opt.Step(params)
		}
	}
	return &CNN{emb: emb, conv: conv, out: out}
}

// Predict returns predicted labels for the examples, evaluated in
// length-bucketed lockstep batches (bitwise independent of the
// batching).
func (m *CNN) Predict(examples []Example) []int {
	lengths := make([]int, len(examples))
	for i, ex := range examples {
		lengths[i] = len(ex.Tokens)
	}
	out := make([]int, len(examples))
	tp := autodiff.NewArenaTape()
	tp.Workers = 1
	for _, batch := range nn.LengthBatches(lengths, 64) {
		tp.Reset()
		n := len(examples[batch[0]].Tokens)
		tok := func(b, t int) []float64 {
			return m.emb.Vector(int(examples[batch[b]].Tokens[t]))
		}
		feats := m.conv.ForwardBatch(tp, tok, len(batch), n)
		logits := m.out.Forward(tp, feats).Value
		for bi, i := range batch {
			if logits.At(bi, 1) > logits.At(bi, 0) {
				out[i] = 1
			}
		}
	}
	return out
}
