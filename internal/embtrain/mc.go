package embtrain

import (
	"math"

	"anchor/internal/cooc"
	"anchor/internal/corpus"
	"anchor/internal/embedding"
	"anchor/internal/floats"
	"anchor/internal/parallel"
)

// clipResidual bounds the per-entry error used in the SGD step.
const clipResidual = 5.0

// MC trains embeddings by online matrix completion of the PPMI matrix
// (following Jin et al. 2016, as used in the paper): stochastic gradient
// descent on the squared error of sampled observed entries,
// min_X Σ_{(i,j)∈Θ} (X_i·X_j − A_ij)², with a single symmetric factor.
// Observed entries are sharded across cores by the deterministic parallel
// engine with per-row averaged delta merges; after every merge the rows
// are re-projected so the combined deltas cannot leave the norm ball that
// keeps plain SGD stable.
type MC struct {
	// Window is the co-occurrence half-window used to build the PPMI matrix.
	Window int
	// Epochs is the number of SGD passes over the observed entries.
	Epochs int
	// LR is the initial learning rate (the paper uses 0.2).
	LR float64
	// DecayEpochs is the epoch after which the learning rate decays
	// geometrically (the paper's "LR decay epochs").
	DecayEpochs int
	// DecayRate is the per-epoch multiplicative decay after DecayEpochs.
	DecayRate float64
	// Workers is the goroutine budget (<= 0 selects all CPUs). Embeddings
	// are bitwise identical for every value.
	Workers int
	// Shards is the fixed data-parallel shard count (<= 0 selects
	// parallel.DefaultShards). Unlike Workers, changing Shards changes the
	// (still deterministic) result.
	Shards int
	// Rounds is the number of synchronization rounds per epoch (<= 0
	// selects the package default). Like Shards it shapes the result
	// deterministically; it never depends on worker count.
	Rounds int
}

// NewMC returns an MC trainer with the paper's hyperparameters scaled to
// the synthetic corpus.
func NewMC() *MC {
	return &MC{Window: 5, Epochs: 30, LR: 0.2, DecayEpochs: 20, DecayRate: 0.8}
}

// Name implements Trainer.
func (t *MC) Name() string { return "mc" }

// Train implements Trainer.
func (t *MC) Train(c *corpus.Corpus, dim int, seed int64) *embedding.Embedding {
	ppmi := cooc.PPMI(cooc.Shared(c, t.Window, cooc.Uniform, t.Workers))
	n := c.Vocab.Size()
	rng := newTrainRNG(seed)

	e := embedding.New(n, dim)
	e.Words = c.Vocab.Words
	e.Meta = embedding.Meta{
		Algorithm: t.Name(), Corpus: corpusName(c), Dim: dim, Seed: seed, Precision: 32,
	}
	// Dimension-normalized initialization: keep the initial vector norms
	// (and therefore the SGD step size in X_i·X_j space) independent of
	// the dimension, so the same learning rate is stable across the whole
	// dimension ladder.
	initStd := 0.3 / math.Sqrt(float64(dim))
	for i := range e.Vectors.Data {
		e.Vectors.Data[i] = rng.NormFloat64() * initStd
	}

	// Row-norm projection radius: a valid factorization satisfies
	// X_i·X_j <= |X_i||X_j|, so rows never need norms beyond
	// sqrt(max PPMI) (with slack). Jin et al.'s online algorithm likewise
	// projects iterates; this is what keeps plain SGD stable at every
	// dimension.
	var maxVal float64
	for _, en := range ppmi.Entries {
		if en.Val > maxVal {
			maxVal = en.Val
		}
	}
	maxNorm := 1.5 * math.Sqrt(maxVal+1)

	shards := parallel.Shards(t.Shards)
	rounds := syncRounds(t.Rounds)
	local := make([]*parallel.Replica, shards)
	for s := range local {
		local[s] = parallel.NewReplica(e.Vectors.Data, dim)
	}

	lr := t.LR
	for epoch := 0; epoch < t.Epochs; epoch++ {
		if epoch >= t.DecayEpochs {
			lr *= t.DecayRate
		}
		order := shuffledOrder(ppmi.NNZ(), rng)
		for _, rr := range parallel.Ranges(len(order), rounds) {
			sub := order[rr.Lo:rr.Hi]
			ranges := parallel.Ranges(len(sub), shards)
			parallel.Run(t.Workers, shards, func(s int) {
				vec := local[s]
				vec.Begin()
				for _, ei := range sub[ranges[s].Lo:ranges[s].Hi] {
					entry := ppmi.Entries[ei]
					xi := vec.Row(int(entry.Row))
					xj := vec.Row(int(entry.Col))
					diff := floats.Dot(xi, xj) - entry.Val
					// Residual clipping keeps a rare large error from triggering
					// the divergence of the unregularized factorization.
					if diff > clipResidual {
						diff = clipResidual
					} else if diff < -clipResidual {
						diff = -clipResidual
					}
					g := lr * diff
					if entry.Row == entry.Col {
						floats.Axpy(-2*g, xi, xi)
						project(xi, maxNorm)
						continue
					}
					// Simultaneous update of both factors, then projection.
					for k := 0; k < dim; k++ {
						xik, xjk := xi[k], xj[k]
						xi[k] -= g * xjk
						xj[k] -= g * xik
					}
					project(xi, maxNorm)
					project(xj, maxNorm)
				}
				vec.Seal()
			}, nil)
			// Merged shard deltas can push a row past the ball each shard
			// respected locally; re-project the touched rows in fixed row
			// order (untouched rows stayed inside the ball by induction).
			for i, m := range parallel.ReduceAveraged(local) {
				if m > 0 {
					project(e.Vectors.Row(i), maxNorm)
				}
			}
		}
	}
	return e
}

// project rescales x onto the ball of the given radius if it lies outside.
func project(x []float64, radius float64) {
	n := floats.Norm(x)
	if n > radius {
		floats.Scale(radius/n, x)
	}
}
