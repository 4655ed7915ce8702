// Package ner implements the paper's named entity recognition downstream
// task: a synthetic CoNLL-2003 analogue (gazetteer + template generation
// over the shared corpus vocabulary) and the BiLSTM / BiLSTM-CRF taggers
// (after Akbik et al. 2018) trained on top of fixed word embeddings.
//
// As in the paper, instability and quality are measured only over tokens
// whose gold label is an entity (PER, ORG, LOC, MISC), not O.
//
// Training, validation and prediction run one path: lockstep minibatches
// of equal-length sentences through the fused BiLSTM on a reset arena
// tape. The tests keep the unfused per-step composition, trained over the
// same batch schedule, as the oracle the weights must match bit for bit.
package ner

import (
	"math"
	"math/rand"

	"anchor/internal/autodiff"
	"anchor/internal/corpus"
	"anchor/internal/embedding"
	"anchor/internal/floats"
	"anchor/internal/matrix"
	"anchor/internal/nn"
)

// Tag values. O must be zero.
const (
	TagO = iota
	TagPER
	TagORG
	TagLOC
	TagMISC
	NumTags
)

// TagNames lists the human-readable tag names indexed by tag value.
var TagNames = [NumTags]string{"O", "PER", "ORG", "LOC", "MISC"}

// Example is one labeled sentence.
type Example struct {
	Tokens []int32
	Tags   []int
}

// Dataset is a train/validation/test split.
type Dataset struct {
	Name             string
	Train, Val, Test []Example
}

// Params controls dataset generation.
type Params struct {
	Name           string
	TrainN, ValN   int
	TestN          int
	LenMin, LenMax int
	// GazetteerSize is the number of distinct entities per type.
	GazetteerSize int
	// MentionRate is the expected number of entity mentions per sentence.
	MentionRate float64
	Seed        int64
}

// CoNLLParams returns the CoNLL-2003 analogue configuration.
func CoNLLParams() Params {
	return Params{
		Name: "conll2003", TrainN: 220, ValN: 60, TestN: 120,
		LenMin: 6, LenMax: 14, GazetteerSize: 30, MentionRate: 2.2, Seed: 5005,
	}
}

// Generate builds the dataset. Each entity type's gazetteer is drawn from
// two dedicated topics of the corpus, so entity identity is recoverable
// from embedding geometry; entities are 1–2 token sequences.
func Generate(c *corpus.Corpus, ccfg corpus.Config, p Params) *Dataset {
	rng := rand.New(rand.NewSource(p.Seed))
	top := c.TopWords(ccfg.VocabSize)

	// Filler (O) words are the most frequent words; gazetteer entities are
	// drawn strictly from the mid-frequency band below them so a word is
	// never both filler and entity (in CoNLL, names and function words are
	// likewise near-disjoint).
	const fillerCut = 60

	// Partition candidate words by topic group: type k draws from topics
	// {2k, 2k+1} mod NumTopics.
	byType := make([][]int32, 4)
	for _, w := range top[fillerCut:] {
		topic := corpus.PrimaryTopic(ccfg, w, corpus.Wiki17)
		ty := (topic / 2) % 4
		if len(byType[ty]) < 3*p.GazetteerSize {
			byType[ty] = append(byType[ty], int32(w))
		}
	}
	// Build gazetteers: each entity is 1 or 2 tokens from its type pool.
	gaz := make([][][]int32, 4)
	for ty := 0; ty < 4; ty++ {
		pool := byType[ty]
		if len(pool) < 4 {
			panic("ner: not enough candidate words for gazetteer")
		}
		for e := 0; e < p.GazetteerSize; e++ {
			n := 1 + rng.Intn(2)
			ent := make([]int32, n)
			for j := range ent {
				ent[j] = pool[rng.Intn(len(pool))]
			}
			gaz[ty] = append(gaz[ty], ent)
		}
	}

	filler := top[:fillerCut]
	gen := func(n int) []Example {
		out := make([]Example, n)
		for i := range out {
			length := p.LenMin + rng.Intn(p.LenMax-p.LenMin+1)
			toks := make([]int32, 0, length+4)
			tags := make([]int, 0, length+4)
			mentions := 0
			for len(toks) < length {
				if float64(mentions) < p.MentionRate && rng.Float64() < p.MentionRate/float64(length) {
					ty := rng.Intn(4)
					ent := gaz[ty][rng.Intn(len(gaz[ty]))]
					for _, w := range ent {
						toks = append(toks, w)
						tags = append(tags, ty+1) // TagPER..TagMISC
					}
					mentions++
				} else {
					toks = append(toks, int32(filler[rng.Intn(len(filler))]))
					tags = append(tags, TagO)
				}
			}
			out[i] = Example{Tokens: toks, Tags: tags}
		}
		return out
	}
	return &Dataset{Name: p.Name, Train: gen(p.TrainN), Val: gen(p.ValN), Test: gen(p.TestN)}
}

// Config configures the BiLSTM tagger. UseCRF switches to the BiLSTM-CRF
// variant of Appendix E.2.
type Config struct {
	Hidden int
	LR     float64
	Epochs int
	// Batch is the lockstep minibatch size: sentences of the same length
	// are stacked and stepped through the BiLSTM together, so one tape
	// serves Batch sentences (<= 0 selects 1). Bucketing and batch order
	// are deterministic; results are bitwise identical for every worker
	// count.
	Batch  int
	UseCRF bool
	// Patience and AnnealFactor implement the paper's anneal-on-plateau
	// schedule (Appendix C.3.2): if validation loss fails to improve for
	// Patience epochs, the learning rate is multiplied by AnnealFactor.
	Patience     int
	AnnealFactor float64
	Seed         int64
}

// DefaultConfig mirrors the paper's NER training setup scaled down. The
// learning rate is tuned for the lockstep minibatch trainer (a batch of 8
// averages 8 sentence gradients per step, so it supports — and needs — a
// larger step size than the old per-sentence loop to reach the same
// quality in the same number of epochs).
func DefaultConfig(seed int64) Config {
	return Config{Hidden: 10, LR: 1.6, Epochs: 10, Batch: 8, Patience: 2, AnnealFactor: 0.5, Seed: seed}
}

// Tagger is a trained BiLSTM (optionally +CRF) NER model over fixed
// embeddings.
type Tagger struct {
	emb *embedding.Embedding
	bi  *nn.BiLSTM
	out *nn.Linear
	crf *nn.CRF // nil without CRF
}

// inferBatch is the lockstep batch size used for gradient-free passes
// (validation loss, prediction). Emission values are independent of how
// sentences are batched, so this is a pure throughput knob.
const inferBatch = 32

// Train fits the tagger on ds.Train with the fixed embedding: lockstep
// length-bucketed minibatches through the fused LSTM ops, recorded on one
// arena-backed tape that is reset between steps. The weights are bitwise
// those of the unfused op composition over the same batch schedule.
func Train(emb *embedding.Embedding, ds *Dataset, cfg Config) *Tagger {
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

	tp := autodiff.NewArenaTape()
	tp.Workers = 1
	bestVal := 1e30
	sincePlateau := 0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		for _, bi := range order {
			tp.Reset()
			tp.Backward(m.batchLoss(tp, ds.Train, batches[bi]))
			opt.Step(params)
		}
		// Anneal on validation plateau. The final epoch's validation pass
		// is skipped: no further training step can observe its outcome.
		if epoch == cfg.Epochs-1 {
			break
		}
		val := m.valLoss(tp, ds.Val)
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

// batchLoss records the loss of one length-bucketed minibatch: stacked
// emissions, then the mean per-token loss — token cross-entropy for the
// BiLSTM, or the summed per-sentence CRF negative log-likelihoods scaled
// by 1/(B·T) so both variants share the cross-entropy's gradient scale
// (and thus the same learning rate).
func (m *Tagger) batchLoss(tp *autodiff.Tape, examples []Example, batch []int) *autodiff.Node {
	emissions := m.emissionsBatch(tp, examples, batch)
	b := len(batch)
	n := len(examples[batch[0]].Tokens)
	if m.crf != nil {
		var sum *autodiff.Node
		for bi, i := range batch {
			idx := make([]int, n)
			for t := range idx {
				idx[t] = t*b + bi
			}
			nll := m.crf.NegLogLikelihood(tp, tp.GatherRows(emissions, idx), examples[i].Tags)
			if sum == nil {
				sum = nll
			} else {
				sum = tp.Add(sum, nll)
			}
		}
		return tp.Scale(sum, 1/float64(b*n))
	}
	targets := make([]int, n*b)
	for bi, i := range batch {
		for t, tag := range examples[i].Tags {
			targets[t*b+bi] = tag
		}
	}
	return tp.CrossEntropy(emissions, targets)
}

// emissionsBatch returns the stacked (T*B)-by-NumTags emission scores of a
// length-bucketed minibatch; row t*B+b is sentence batch[b] at timestep t.
func (m *Tagger) emissionsBatch(tp *autodiff.Tape, examples []Example, batch []int) *autodiff.Node {
	n := len(examples[batch[0]].Tokens)
	xs := make([]*autodiff.Node, n)
	ids := make([]int32, len(batch))
	for t := 0; t < n; t++ {
		for bi, i := range batch {
			ids[bi] = examples[i].Tokens[t]
		}
		xs[t] = tp.LookupRows(m.emb.Vectors, ids)
	}
	return m.out.Forward(tp, m.bi.ForwardSeq(tp, xs))
}

// valLoss scores the validation split in lockstep batches on the
// trainer's tape (reset per batch). Emission values are bitwise
// independent of batching, so the value is the mean of the per-sentence
// losses, summed in original example order.
func (m *Tagger) valLoss(tp *autodiff.Tape, val []Example) float64 {
	lengths := make([]int, len(val))
	for i, ex := range val {
		lengths[i] = len(ex.Tokens)
	}
	losses := make([]float64, len(val))
	used := make([]bool, len(val))
	probs := make([]float64, NumTags)
	for _, batch := range nn.LengthBatches(lengths, inferBatch) {
		tp.Reset()
		em := m.emissionsBatch(tp, val, batch).Value
		b := len(batch)
		n := len(val[batch[0]].Tokens)
		for bi, i := range batch {
			if m.crf != nil {
				sent := matrix.NewDense(n, NumTags)
				for t := 0; t < n; t++ {
					copy(sent.Row(t), em.Row(t*b+bi))
				}
				losses[i] = m.crf.NLLValue(sent, val[i].Tags)
			} else {
				var loss float64
				for t, tag := range val[i].Tags {
					floats.Softmax(probs, em.Row(t*b+bi))
					p := probs[tag]
					if p < 1e-12 {
						p = 1e-12
					}
					loss -= math.Log(p)
				}
				losses[i] = loss / float64(n)
			}
			used[i] = true
		}
	}
	var total float64
	n := 0
	for i, ok := range used {
		if ok {
			total += losses[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

func (m *Tagger) decodeEmissions(emissions *matrix.Dense) []int {
	if m.crf != nil {
		return m.crf.Decode(emissions)
	}
	out := make([]int, emissions.Rows)
	for i := 0; i < emissions.Rows; i++ {
		best := 0
		for j := 1; j < NumTags; j++ {
			if emissions.At(i, j) > emissions.At(i, best) {
				best = j
			}
		}
		out[i] = best
	}
	return out
}

// predictAll tags every example in lockstep batches; predictions are
// bitwise independent of how the sentences are batched.
func (m *Tagger) predictAll(examples []Example) [][]int {
	lengths := make([]int, len(examples))
	for i, ex := range examples {
		lengths[i] = len(ex.Tokens)
	}
	preds := make([][]int, len(examples))
	tp := autodiff.NewArenaTape()
	tp.Workers = 1
	for _, batch := range nn.LengthBatches(lengths, inferBatch) {
		tp.Reset()
		em := m.emissionsBatch(tp, examples, batch).Value
		b := len(batch)
		n := len(examples[batch[0]].Tokens)
		sent := matrix.NewDense(n, NumTags)
		for bi, i := range batch {
			for t := 0; t < n; t++ {
				copy(sent.Row(t), em.Row(t*b+bi))
			}
			preds[i] = m.decodeEmissions(sent)
		}
	}
	return preds
}

// EntityPredictions returns the model's predictions flattened over the
// tokens whose GOLD tag is an entity — the prediction set the paper
// measures NER instability on.
func (m *Tagger) EntityPredictions(examples []Example) []int {
	return entityPredictionsOf(m.predictAll(examples), examples)
}

// EvaluateEntities returns both the flattened gold-entity predictions and
// the micro-averaged entity F1 at the token level (precision/recall of
// entity-tagged tokens, the quality metric for the Figure 8 analogue) from
// a single batched inference pass.
func (m *Tagger) EvaluateEntities(examples []Example) ([]int, float64) {
	all := m.predictAll(examples)
	return entityPredictionsOf(all, examples), entityF1Of(all, examples)
}

func entityPredictionsOf(all [][]int, examples []Example) []int {
	var out []int
	for xi, ex := range examples {
		for i, gold := range ex.Tags {
			if gold != TagO {
				out = append(out, all[xi][i])
			}
		}
	}
	return out
}

func entityF1Of(all [][]int, examples []Example) float64 {
	var tp, fp, fn float64
	for xi, ex := range examples {
		preds := all[xi]
		for i, gold := range ex.Tags {
			pred := preds[i]
			switch {
			case gold != TagO && pred == gold:
				tp++
			case gold != TagO && pred != gold:
				fn++
				if pred != TagO {
					fp++
				}
			case gold == TagO && pred != TagO:
				fp++
			}
		}
	}
	if tp == 0 {
		return 0
	}
	prec := tp / (tp + fp)
	rec := tp / (tp + fn)
	return 2 * prec * rec / (prec + rec)
}
