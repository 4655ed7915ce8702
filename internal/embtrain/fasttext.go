package embtrain

import (
	"anchor/internal/corpus"
	"anchor/internal/embedding"
	"anchor/internal/floats"
	"anchor/internal/parallel"
)

// FastText trains skipgram embeddings with subword information
// (Bojanowski et al. 2017), used in the paper's Appendix E.1 robustness
// study: each word's input representation is the average of its word
// vector and the vectors of its character n-grams, hashed into a fixed
// bucket table. The synthetic vocabulary has real morphology (stem+suffix
// families), so subwords carry signal exactly as in natural language.
// Sentences are sharded across cores by the deterministic parallel engine;
// the word, n-gram, and output matrices are replicated per shard and
// merged by parallel.Merge.
type FastText struct {
	// Window is the maximum skipgram context half-width.
	Window int
	// Negatives is the number of negative samples per pair.
	Negatives int
	// Epochs is the number of passes over the corpus.
	Epochs int
	// LR is the initial learning rate, decayed linearly.
	LR float64
	// MinN and MaxN bound the character n-gram lengths.
	MinN, MaxN int
	// Buckets is the size of the n-gram hash table.
	Buckets int
	// NegPower is the unigram distribution exponent.
	NegPower float64
	// Workers is the goroutine budget (<= 0 selects all CPUs). Embeddings
	// are bitwise identical for every value.
	Workers int
}

// NewFastText returns a fastText trainer with repro-scale defaults.
func NewFastText() *FastText {
	return &FastText{
		Window: 5, Negatives: 5, Epochs: 10, LR: 0.1,
		MinN: 3, MaxN: 5, Buckets: 4096, NegPower: 0.75,
	}
}

// Name implements Trainer.
func (t *FastText) Name() string { return "fasttext" }

// fnv1a hashes a string with the 32-bit FNV-1a function fastText uses.
func fnv1a(s string) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// Subwords returns the hash-bucket ids of the character n-grams of word
// (with the <word> boundary markers fastText adds).
func (t *FastText) Subwords(word string) []int32 {
	w := "<" + word + ">"
	var out []int32
	for n := t.MinN; n <= t.MaxN; n++ {
		for i := 0; i+n <= len(w); i++ {
			out = append(out, int32(fnv1a(w[i:i+n])%uint32(t.Buckets)))
		}
	}
	return out
}

// ftShard is one shard's copy-on-write view of the fastText state.
type ftShard struct {
	word, gram, out *parallel.Replica
	h, grad         []float64
}

// Train implements Trainer.
func (t *FastText) Train(c *corpus.Corpus, dim int, seed int64) *embedding.Embedding {
	n := c.Vocab.Size()
	rng := newTrainRNG(seed)

	// Precompute each word's subword bucket list.
	sub := make([][]int32, n)
	for w := 0; w < n; w++ {
		sub[w] = t.Subwords(c.Vocab.Words[w])
	}

	wordVec := make([]float64, n*dim)
	gramVec := make([]float64, t.Buckets*dim)
	out := make([]float64, n*dim)
	initMatrix(wordVec, dim, rng)
	initMatrix(gramVec, dim, rng)

	table := newUnigramTable(c.Counts, t.NegPower)
	total := float64(t.Epochs) * float64(c.Tokens)

	shards, rounds := parallel.DefaultShards, fastTextSyncRounds
	local := make([]*ftShard, shards)
	words := make([]*parallel.Replica, shards)
	grams := make([]*parallel.Replica, shards)
	outs := make([]*parallel.Replica, shards)
	for s := range local {
		words[s] = parallel.NewReplica(wordVec, dim)
		grams[s] = parallel.NewReplica(gramVec, dim)
		outs[s] = parallel.NewReplica(out, dim)
		local[s] = &ftShard{
			word: words[s], gram: grams[s], out: outs[s],
			h: make([]float64, dim), grad: make([]float64, dim),
		}
	}

	order := make([]int32, len(c.Sentences))
	for epoch := 0; epoch < t.Epochs; epoch++ {
		shuffleInto(order, rng)
		var epochTokens float64
		for round, rr := range parallel.Ranges(len(order), rounds) {
			sub2 := order[rr.Lo:rr.Hi]
			ranges := parallel.Ranges(len(sub2), shards)
			offsets, roundTokens := tokenOffsets(c, sub2, ranges)
			parallel.Run(t.Workers, shards, func(s int) {
				st := local[s]
				st.word.Begin()
				st.gram.Begin()
				st.out.Begin()
				srng := parallel.ShardRNG(seed, s, epoch*rounds+round)
				processed := float64(epoch)*float64(c.Tokens) + epochTokens + offsets[s]
				for _, si := range sub2[ranges[s].Lo:ranges[s].Hi] {
					sent := c.Sentences[si]
					for pos, center := range sent {
						lr := t.LR * (1 - processed/total)
						if lr < t.LR*1e-4 {
							lr = t.LR * 1e-4
						}
						processed++

						// Input representation of the center word: average of word
						// vector and subword vectors.
						grams := sub[center]
						norm := 1 / float64(1+len(grams))
						copy(st.h, st.word.Row(int(center)))
						for _, g := range grams {
							floats.Add(st.h, st.gram.Row(int(g)))
						}
						floats.Scale(norm, st.h)

						b := 1 + srng.Intn(t.Window)
						for off := -b; off <= b; off++ {
							if off == 0 {
								continue
							}
							p := pos + off
							if p < 0 || p >= len(sent) {
								continue
							}
							ctx := sent[p]
							floats.Fill(st.grad, 0)
							for k := 0; k <= t.Negatives; k++ {
								var target int32
								var label float64
								if k == 0 {
									target, label = ctx, 1
								} else {
									target = table.sample(srng)
									if target == ctx {
										continue
									}
									label = 0
								}
								row := st.out.Row(int(target))
								g := (label - sigmoid(floats.Dot(st.h, row))) * lr
								floats.Axpy(g, row, st.grad)
								floats.Axpy(g, st.h, row)
							}
							// Distribute the input gradient over word + subword vectors.
							floats.Axpy(norm, st.grad, st.word.Row(int(center)))
							for _, g := range grams {
								floats.Axpy(norm, st.grad, st.gram.Row(int(g)))
							}
						}
					}
				}
			}, nil)
			for _, reps := range [][]*parallel.Replica{words, grams, outs} {
				parallel.Merge(t.Workers, reps, false, nil)
			}
			epochTokens += roundTokens
		}
	}

	// The stored embedding for each word is its composed representation.
	e := embedding.New(n, dim)
	e.Words = c.Vocab.Words
	e.Meta = embedding.Meta{
		Algorithm: t.Name(), Corpus: corpusName(c), Dim: dim, Seed: seed, Precision: 32,
	}
	for w := 0; w < n; w++ {
		row := e.Vectors.Row(w)
		copy(row, wordVec[w*dim:(w+1)*dim])
		for _, g := range sub[w] {
			floats.Add(row, gramVec[int(g)*dim:(int(g)+1)*dim])
		}
		floats.Scale(1/float64(1+len(sub[w])), row)
	}
	return e
}
