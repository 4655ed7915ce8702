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
// engine, and parallel.Merge averages each row's shard deltas; its per-row
// hook re-projects every merged row so the combined deltas cannot leave
// the norm ball that keeps plain SGD stable. A round runs its shards two
// at a time, as lockstep pairs: one task advances both shards an entry per
// step through one fused kernel, so their two independent chains of
// dependent dot products and updates overlap. Each shard still applies
// its own entries, in its own order, to its own replica, so the pairing
// moves no bit.
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
	ppmi := cooc.SharedPPMI(c, t.Window, cooc.Uniform, t.Workers)
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

	shards, rounds := parallel.DefaultShards, defaultSyncRounds
	local := make([]*parallel.Replica, shards)
	for s := range local {
		local[s] = parallel.NewReplica(e.Vectors.Data, dim)
	}

	lr := t.LR
	order := make([]int32, ppmi.NNZ())
	for epoch := 0; epoch < t.Epochs; epoch++ {
		if epoch >= t.DecayEpochs {
			lr *= t.DecayRate
		}
		st := mcStep{lr: lr, maxNorm: maxNorm}
		shuffleInto(order, rng)
		for _, rr := range parallel.Ranges(len(order), rounds) {
			sub := order[rr.Lo:rr.Hi]
			ranges := parallel.Ranges(len(sub), shards)
			// Shards 2p and 2p+1 run as one task, in lockstep: step i
			// applies entry i of each shard to that shard's replica, so the
			// two independent dot products and updates overlap. Ranges gives
			// the even shard the longer range when they differ, by one entry,
			// which then runs alone.
			parallel.Run(t.Workers, shards/2, func(p int) {
				va, vb := local[2*p], local[2*p+1]
				va.Begin()
				vb.Begin()
				ea := sub[ranges[2*p].Lo:ranges[2*p].Hi]
				eb := sub[ranges[2*p+1].Lo:ranges[2*p+1].Hi]
				for i, ib := range eb {
					a, b := ppmi.Entries[ea[i]], ppmi.Entries[ib]
					if a.Row == a.Col || b.Row == b.Col {
						st.one(va, a)
						st.one(vb, b)
						continue
					}
					st.two(va, vb, a, b)
				}
				for _, ia := range ea[len(eb):] {
					st.one(va, ppmi.Entries[ia])
				}
			}, nil)
			// Merged shard deltas can push a row past the ball each shard
			// respected locally; re-project every merged row (untouched
			// rows stayed inside the ball by induction).
			parallel.Merge(t.Workers, local, true, func(i int) {
				project(e.Vectors.Row(i), maxNorm)
			})
		}
	}
	return e
}

// mcStep is one epoch's SGD step on an observed PPMI entry: learning rate
// lr, then projection of each updated row onto the ball of radius maxNorm.
type mcStep struct{ lr, maxNorm float64 }

// grad returns the step's scaled residual for the dot product x of an
// entry with value val. Residual clipping keeps a rare large error from
// triggering the divergence of the unregularized factorization.
func (st mcStep) grad(x, val float64) float64 {
	diff := x - val
	if diff > clipResidual {
		diff = clipResidual
	} else if diff < -clipResidual {
		diff = -clipResidual
	}
	return st.lr * diff
}

// one applies entry en to replica vec.
func (st mcStep) one(vec *parallel.Replica, en cooc.Entry) {
	xi := vec.Row(int(en.Row))
	xj := vec.Row(int(en.Col))
	g := st.grad(floats.Dot(xi, xj), en.Val)
	if en.Row == en.Col {
		floats.Axpy(-2*g, xi, xi)
		project(xi, st.maxNorm)
		return
	}
	// Simultaneous update of both factors, then projection. The loop also
	// sums each row's squares, in the ascending order floats.Norm would, so
	// neither row is read a second time. The rows are distinct, so each
	// new value is stored once and summed from its register.
	xj = xj[:len(xi)] // bounds-check elimination in the loop below
	var si, sj float64
	for k, xik := range xi {
		xjk := xj[k]
		ni := xik - g*xjk
		nj := xjk - g*xik
		xi[k], xj[k] = ni, nj
		si += ni * ni
		sj += nj * nj
	}
	clampNorm(xi, math.Sqrt(si), st.maxNorm)
	clampNorm(xj, math.Sqrt(sj), st.maxNorm)
}

// two applies off-diagonal entry a to replica va and off-diagonal entry b
// to replica vb, two distinct replicas, in one fused kernel: one loop
// carries both dot products and one carries both updates, so the two
// dependency chains overlap. Each value gets exactly the operations, in
// the order, that one would give it, so the result equals one(va, a)
// followed by one(vb, b) bit for bit.
func (st mcStep) two(va, vb *parallel.Replica, a, b cooc.Entry) {
	ai := va.Row(int(a.Row))
	aj := va.Row(int(a.Col))
	bi := vb.Row(int(b.Row))
	bj := vb.Row(int(b.Col))
	// Bounds-check elimination in the loops below.
	aj, bi, bj = aj[:len(ai)], bi[:len(ai)], bj[:len(ai)]
	var da, db float64
	for k, aik := range ai {
		da += aik * aj[k]
		db += bi[k] * bj[k]
	}
	ga, gb := st.grad(da, a.Val), st.grad(db, b.Val)
	var sai, saj, sbi, sbj float64
	for k, aik := range ai {
		ajk, bik, bjk := aj[k], bi[k], bj[k]
		nai := aik - ga*ajk
		naj := ajk - ga*aik
		nbi := bik - gb*bjk
		nbj := bjk - gb*bik
		ai[k], aj[k], bi[k], bj[k] = nai, naj, nbi, nbj
		sai += nai * nai
		saj += naj * naj
		sbi += nbi * nbi
		sbj += nbj * nbj
	}
	clampNorm(ai, math.Sqrt(sai), st.maxNorm)
	clampNorm(aj, math.Sqrt(saj), st.maxNorm)
	clampNorm(bi, math.Sqrt(sbi), st.maxNorm)
	clampNorm(bj, math.Sqrt(sbj), st.maxNorm)
}

// project rescales x onto the ball of the given radius if it lies outside.
func project(x []float64, radius float64) { clampNorm(x, floats.Norm(x), radius) }

// clampNorm is project for an x whose norm n is already known.
func clampNorm(x []float64, n, radius float64) {
	if n > radius {
		floats.Scale(radius/n, x)
	}
}
