package embtrain

import (
	"anchor/internal/corpus"
	"anchor/internal/embedding"
	"anchor/internal/floats"
	"anchor/internal/parallel"
)

// CBOW trains continuous bag-of-words embeddings with negative sampling
// (Mikolov et al. 2013): the averaged context window predicts the center
// word. This mirrors the word2vec implementation the paper uses, with the
// Hogwild-style threading replaced by the deterministic sharded engine.
type CBOW struct {
	// Window is the maximum context half-width; per position the effective
	// width is sampled uniformly from [1, Window] as in word2vec.
	Window int
	// Negatives is the number of negative samples per center word.
	Negatives int
	// Epochs is the number of passes over the corpus.
	Epochs int
	// LR is the initial learning rate, decayed linearly to LR/10000.
	LR float64
	// NegPower is the unigram distribution exponent (0.75 in word2vec).
	NegPower float64
	// Workers is the goroutine budget (<= 0 selects all CPUs). Embeddings
	// are bitwise identical for every value.
	Workers int
}

// NewCBOW returns a CBOW trainer with repro-scale defaults (the paper's
// hyperparameters, with window and epochs scaled to the synthetic corpus).
func NewCBOW() *CBOW {
	return &CBOW{Window: 5, Negatives: 5, Epochs: 12, LR: 0.1, NegPower: 0.75}
}

// Name implements Trainer.
func (t *CBOW) Name() string { return "cbow" }

// cbowShard is one shard's copy-on-write view of the CBOW state.
type cbowShard struct {
	in, out *parallel.Replica
	h, grad []float64 // per-position scratch
}

// Train implements Trainer.
func (t *CBOW) Train(c *corpus.Corpus, dim int, seed int64) *embedding.Embedding {
	n := c.Vocab.Size()
	rng := newTrainRNG(seed)
	e := embedding.New(n, dim)
	e.Words = c.Vocab.Words
	e.Meta = embedding.Meta{
		Algorithm: t.Name(), Corpus: corpusName(c), Dim: dim, Seed: seed, Precision: 32,
	}
	initMatrix(e.Vectors.Data, dim, rng)
	out := make([]float64, n*dim) // output (context->center) matrix, zero-initialized

	table := newUnigramTable(c.Counts, t.NegPower)
	total := float64(t.Epochs) * float64(c.Tokens)

	shards, rounds := parallel.DefaultShards, cbowSyncRounds
	local := make([]*cbowShard, shards)
	ins := make([]*parallel.Replica, shards)
	outs := make([]*parallel.Replica, shards)
	for s := range local {
		ins[s] = parallel.NewReplica(e.Vectors.Data, dim)
		outs[s] = parallel.NewReplica(out, dim)
		local[s] = &cbowShard{
			in: ins[s], out: outs[s],
			h: make([]float64, dim), grad: make([]float64, dim),
		}
	}

	order := make([]int32, len(c.Sentences))
	for epoch := 0; epoch < t.Epochs; epoch++ {
		shuffleInto(order, rng)
		var epochTokens float64
		for round, rr := range parallel.Ranges(len(order), rounds) {
			sub := order[rr.Lo:rr.Hi]
			ranges := parallel.Ranges(len(sub), shards)
			offsets, roundTokens := tokenOffsets(c, sub, ranges)
			parallel.Run(t.Workers, shards, func(s int) {
				st := local[s]
				st.in.Begin()
				st.out.Begin()
				srng := parallel.ShardRNG(seed, s, epoch*rounds+round)
				processed := float64(epoch)*float64(c.Tokens) + epochTokens + offsets[s]
				for _, si := range sub[ranges[s].Lo:ranges[s].Hi] {
					sent := c.Sentences[si]
					for pos, center := range sent {
						lr := t.LR * (1 - processed/total)
						if lr < t.LR*1e-4 {
							lr = t.LR * 1e-4
						}
						processed++

						b := 1 + srng.Intn(t.Window) // effective half-width
						floats.Fill(st.h, 0)
						count := 0
						for off := -b; off <= b; off++ {
							if off == 0 {
								continue
							}
							p := pos + off
							if p < 0 || p >= len(sent) {
								continue
							}
							floats.Add(st.h, st.in.Row(int(sent[p])))
							count++
						}
						if count == 0 {
							continue
						}
						floats.Scale(1/float64(count), st.h)
						floats.Fill(st.grad, 0)

						for k := 0; k <= t.Negatives; k++ {
							var target int32
							var label float64
							if k == 0 {
								target, label = center, 1
							} else {
								target = table.sample(srng)
								if target == center {
									continue
								}
								label = 0
							}
							row := st.out.Row(int(target))
							g := (label - sigmoid(floats.Dot(st.h, row))) * lr
							floats.Axpy(g, row, st.grad)
							floats.Axpy(g, st.h, row)
						}
						gScale := 1 / float64(count)
						for off := -b; off <= b; off++ {
							if off == 0 {
								continue
							}
							p := pos + off
							if p < 0 || p >= len(sent) {
								continue
							}
							floats.Axpy(gScale, st.grad, st.in.Row(int(sent[p])))
						}
					}
				}
			}, nil)
			parallel.Merge(t.Workers, ins, false, nil)
			parallel.Merge(t.Workers, outs, false, nil)
			epochTokens += roundTokens
		}
	}
	return e
}

func corpusName(c *corpus.Corpus) string {
	switch c.Year {
	case corpus.Wiki17:
		return "wiki17"
	case corpus.Wiki18:
		return "wiki18"
	}
	return "corpus"
}
