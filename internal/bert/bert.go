// Package bert implements the paper's contextual word embedding extension
// (Section 6.2, Appendix C.6): a shallow 3-layer BERT-style transformer
// encoder pre-trained with a masked language model objective on
// sub-sampled corpus snapshots, then used as a FROZEN feature extractor for
// downstream linear classifiers. Dimension experiments vary the
// transformer output size; precision experiments uniformly quantize the
// last transformer layer's outputs, exactly as in the paper.
package bert

import (
	"math"
	"math/rand"
	"sync"

	"anchor/internal/autodiff"
	"anchor/internal/corpus"
	"anchor/internal/matrix"
	"anchor/internal/nn"
)

// Config parameterizes pre-training. The paper uses 3 transformer layers
// on 10% sub-sampled Wikipedia with output dimensionality swept from a
// quarter of to 4x the BERT-base hidden size.
type Config struct {
	Layers        int
	Hidden        int
	Heads         int
	FFN           int
	SeqLen        int
	MaskProb      float64
	Epochs        int
	LR            float64
	SubsampleFrac float64
	Seed          int64
}

// DefaultConfig returns the repro-scale 3-layer configuration for a given
// output dimensionality.
func DefaultConfig(hidden int, seed int64) Config {
	heads := 2
	if hidden >= 64 {
		heads = 4
	}
	return Config{
		Layers: 3, Hidden: hidden, Heads: heads, FFN: 2 * hidden,
		SeqLen: 16, MaskProb: 0.15, Epochs: 2, LR: 1e-3,
		SubsampleFrac: 0.1, Seed: seed,
	}
}

type encoderLayer struct {
	wq, wk, wv, wo   *nn.Linear
	ffn1, ffn2       *nn.Linear
	ln1Gain, ln1Bias *autodiff.Param
	ln2Gain, ln2Bias *autodiff.Param
}

func newEncoderLayer(name string, hidden, ffn int, rng *rand.Rand) *encoderLayer {
	ones := func(n string) *autodiff.Param {
		m := matrix.NewDense(1, hidden)
		for i := range m.Data {
			m.Data[i] = 1
		}
		return autodiff.NewParam(n, m)
	}
	return &encoderLayer{
		wq:      nn.NewLinear(name+".q", hidden, hidden, rng),
		wk:      nn.NewLinear(name+".k", hidden, hidden, rng),
		wv:      nn.NewLinear(name+".v", hidden, hidden, rng),
		wo:      nn.NewLinear(name+".o", hidden, hidden, rng),
		ffn1:    nn.NewLinear(name+".ffn1", hidden, ffn, rng),
		ffn2:    nn.NewLinear(name+".ffn2", ffn, hidden, rng),
		ln1Gain: ones(name + ".ln1g"),
		ln1Bias: autodiff.NewParam(name+".ln1b", matrix.NewDense(1, hidden)),
		ln2Gain: ones(name + ".ln2g"),
		ln2Bias: autodiff.NewParam(name+".ln2b", matrix.NewDense(1, hidden)),
	}
}

func (l *encoderLayer) params() []*autodiff.Param {
	out := append(l.wq.Params(), l.wk.Params()...)
	out = append(out, l.wv.Params()...)
	out = append(out, l.wo.Params()...)
	out = append(out, l.ffn1.Params()...)
	out = append(out, l.ffn2.Params()...)
	return append(out, l.ln1Gain, l.ln1Bias, l.ln2Gain, l.ln2Bias)
}

// Model is a pre-trained BERT-style encoder.
type Model struct {
	Cfg       Config
	VocabSize int // corpus vocab; the [MASK] token is row VocabSize
	tokEmb    *autodiff.Param
	posEmb    *autodiff.Param
	layers    []*encoderLayer
	mlmOut    *nn.Linear

	// mu guards tape: the arena tape Pretrain trains on, which
	// SentenceFeature then Resets and records on for each sentence, so
	// evaluation takes no fresh arena per call.
	mu   sync.Mutex
	tape *autodiff.Tape
}

func (m *Model) params() []*autodiff.Param {
	out := []*autodiff.Param{m.tokEmb, m.posEmb}
	for _, l := range m.layers {
		out = append(out, l.params()...)
	}
	return append(out, m.mlmOut.Params()...)
}

// encode runs the transformer over a token sequence on the given tape and
// returns the last layer's hidden states (n-by-Hidden).
func (m *Model) encode(tp *autodiff.Tape, tokens []int) *autodiff.Node {
	n := len(tokens)
	x := tp.Add(
		tp.GatherRows(tp.Use(m.tokEmb), tokens),
		tp.SliceRows(tp.Use(m.posEmb), 0, n),
	)
	dh := m.Cfg.Hidden / m.Cfg.Heads
	scale := 1 / math.Sqrt(float64(dh))
	for _, l := range m.layers {
		q := l.wq.Forward(tp, x)
		k := l.wk.Forward(tp, x)
		v := l.wv.Forward(tp, x)
		heads := make([]*autodiff.Node, m.Cfg.Heads)
		for h := 0; h < m.Cfg.Heads; h++ {
			qh := tp.SliceCols(q, h*dh, (h+1)*dh)
			kh := tp.SliceCols(k, h*dh, (h+1)*dh)
			vh := tp.SliceCols(v, h*dh, (h+1)*dh)
			scores := tp.Scale(tp.MatMulABT(qh, kh), scale)
			heads[h] = tp.MatMul(tp.SoftmaxRows(scores), vh)
		}
		attn := l.wo.Forward(tp, tp.ConcatCols(heads...))
		x = tp.LayerNormRows(tp.Add(x, attn), tp.Use(l.ln1Gain), tp.Use(l.ln1Bias))
		ffn := l.ffn2.Forward(tp, tp.GELU(l.ffn1.Forward(tp, x)))
		x = tp.LayerNormRows(tp.Add(x, ffn), tp.Use(l.ln2Gain), tp.Use(l.ln2Bias))
	}
	return x
}

// Pretrain trains the masked language model on a sub-sample of the corpus
// and returns the frozen encoder.
func Pretrain(c *corpus.Corpus, cfg Config) *Model {
	rng := rand.New(rand.NewSource(cfg.Seed))
	vocab := c.Vocab.Size()
	m := &Model{Cfg: cfg, VocabSize: vocab}

	tok := matrix.NewDense(vocab+1, cfg.Hidden) // +1 for [MASK]
	pos := matrix.NewDense(cfg.SeqLen, cfg.Hidden)
	nn.XavierInit(tok, vocab+1, cfg.Hidden, rng)
	nn.XavierInit(pos, cfg.SeqLen, cfg.Hidden, rng)
	m.tokEmb = autodiff.NewParam("tok", tok)
	m.posEmb = autodiff.NewParam("pos", pos)
	for i := 0; i < cfg.Layers; i++ {
		m.layers = append(m.layers, newEncoderLayer("layer", cfg.Hidden, cfg.FFN, rng))
	}
	m.mlmOut = nn.NewLinear("mlm", cfg.Hidden, vocab, rng)

	// Deterministic sub-sample of sentences.
	var sentences [][]int32
	for i, s := range c.Sentences {
		if float64(i%1000)/1000 < cfg.SubsampleFrac {
			sentences = append(sentences, s)
		}
	}
	params := m.params()
	opt := nn.NewAdam(cfg.LR)
	maskTok := vocab
	tp := autodiff.NewArenaTape()
	m.tape = tp

	order := make([]int, len(sentences))
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		for _, si := range order {
			sent := sentences[si]
			n := len(sent)
			if n > cfg.SeqLen {
				n = cfg.SeqLen
			}
			if n < 2 {
				continue
			}
			tokens := make([]int, n)
			for i := 0; i < n; i++ {
				tokens[i] = int(sent[i])
			}
			// Mask positions (at least one) with BERT's 80/10/10 rule.
			var maskedPos []int
			var maskedTarget []int
			for i := 0; i < n; i++ {
				if rng.Float64() < cfg.MaskProb {
					maskedPos = append(maskedPos, i)
					maskedTarget = append(maskedTarget, tokens[i])
					switch r := rng.Float64(); {
					case r < 0.8:
						tokens[i] = maskTok
					case r < 0.9:
						tokens[i] = rng.Intn(vocab)
					}
				}
			}
			if len(maskedPos) == 0 {
				i := rng.Intn(n)
				maskedPos = []int{i}
				maskedTarget = []int{tokens[i]}
				tokens[i] = maskTok
			}
			tp.Reset()
			hidden := m.encode(tp, tokens)
			masked := tp.GatherRows(hidden, maskedPos)
			loss := tp.CrossEntropy(m.mlmOut.Forward(tp, masked), maskedTarget)
			tp.Backward(loss)
			opt.Step(params)
		}
	}
	return m
}

// encodeFrozen records a sentence (truncated to SeqLen) on the model's
// reset tape and returns its last-layer hidden states, valid until the
// next Reset. The caller holds m.mu.
func (m *Model) encodeFrozen(tokens []int32) *matrix.Dense {
	n := min(len(tokens), m.Cfg.SeqLen)
	ids := make([]int, n)
	for i := 0; i < n; i++ {
		ids[i] = int(tokens[i])
	}
	m.tape.Reset()
	return m.encode(m.tape, ids).Value
}

// SentenceFeature returns the mean-pooled last-layer representation, the
// sentence embedding the downstream linear classifiers consume.
func (m *Model) SentenceFeature(tokens []int32) []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.encodeFrozen(tokens)
	out := make([]float64, m.Cfg.Hidden)
	for i := 0; i < h.Rows; i++ {
		row := h.Row(i)
		for j := range out {
			out[j] += row[j]
		}
	}
	for j := range out {
		out[j] /= float64(h.Rows)
	}
	return out
}
