package embtrain

import (
	"math"

	"anchor/internal/cooc"
	"anchor/internal/corpus"
	"anchor/internal/embedding"
	"anchor/internal/floats"
	"anchor/internal/parallel"
)

// GloVe trains embeddings by weighted least-squares factorization of the
// log co-occurrence matrix (Pennington et al. 2014) with AdaGrad, modeling
// word and context vectors plus bias terms separately; the returned
// embedding is the standard sum of word and context vectors. Nonzero
// entries are sharded across cores by the deterministic parallel engine;
// the AdaGrad accumulators are replicated and merged like the parameters.
type GloVe struct {
	// Window is the co-occurrence half-window; counts are weighted 1/distance.
	Window int
	// Epochs is the number of AdaGrad passes over the nonzero entries.
	Epochs int
	// LR is the AdaGrad learning rate.
	LR float64
	// XMax and Alpha parameterize the weighting f(x) = min(1, (x/XMax)^Alpha).
	XMax  float64
	Alpha float64
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

// NewGloVe returns a GloVe trainer with repro-scale defaults. The paper
// uses lr=0.01, xmax=100, alpha=0.75 on 4.5B tokens; xmax is scaled to the
// synthetic corpus so the weighting still saturates.
func NewGloVe() *GloVe {
	return &GloVe{Window: 5, Epochs: 25, LR: 0.05, XMax: 20, Alpha: 0.75}
}

// Name implements Trainer.
func (t *GloVe) Name() string { return "glove" }

// gloveShard is one shard's copy-on-write view of the GloVe parameters and
// their AdaGrad accumulators. all collects every replica so the round
// lifecycle (begin, then one merge per matrix) cannot silently skip one of
// them.
type gloveShard struct {
	w, wc   *parallel.Replica // word / context vectors
	b, bc   *parallel.Replica // word / context biases
	gw, gwc *parallel.Replica // AdaGrad accumulators for the vectors
	gb, gbc *parallel.Replica // AdaGrad accumulators for the biases
	all     []*parallel.Replica
}

func (st *gloveShard) begin() {
	for _, r := range st.all {
		r.Begin()
	}
}

// update applies one AdaGrad step for the directed pair (i -> j) with
// co-occurrence weight x.
func (t *GloVe) update(st *gloveShard, dim int, i, j int32, x float64) {
	wi := st.w.Row(int(i))
	cj := st.wc.Row(int(j))
	bi := st.b.Row(int(i))
	bj := st.bc.Row(int(j))
	gwi := st.gw.Row(int(i))
	gcj := st.gwc.Row(int(j))
	gbi := st.gb.Row(int(i))
	gbj := st.gbc.Row(int(j))
	diff := floats.Dot(wi, cj) + bi[0] + bj[0] - math.Log(x)
	f := 1.0
	if x < t.XMax {
		f = math.Pow(x/t.XMax, t.Alpha)
	}
	g := f * diff
	for k := 0; k < dim; k++ {
		gwk := g * cj[k]
		gck := g * wi[k]
		wi[k] -= t.LR * gwk / math.Sqrt(gwi[k])
		cj[k] -= t.LR * gck / math.Sqrt(gcj[k])
		gwi[k] += gwk * gwk
		gcj[k] += gck * gck
	}
	bi[0] -= t.LR * g / math.Sqrt(gbi[0])
	bj[0] -= t.LR * g / math.Sqrt(gbj[0])
	gbi[0] += g * g
	gbj[0] += g * g
}

// Train implements Trainer.
func (t *GloVe) Train(c *corpus.Corpus, dim int, seed int64) *embedding.Embedding {
	counts := cooc.Shared(c, t.Window, cooc.InverseDistance, t.Workers)
	n := c.Vocab.Size()
	rng := newTrainRNG(seed)

	w := make([]float64, n*dim)  // word vectors
	wc := make([]float64, n*dim) // context vectors
	b := make([]float64, n)      // word biases
	bc := make([]float64, n)     // context biases
	initMatrix(w, dim, rng)
	initMatrix(wc, dim, rng)

	// AdaGrad accumulators, initialized to 1 as in the reference implementation.
	gw := make([]float64, n*dim)
	gwc := make([]float64, n*dim)
	gb := make([]float64, n)
	gbc := make([]float64, n)
	for i := range gw {
		gw[i], gwc[i] = 1, 1
	}
	for i := range gb {
		gb[i], gbc[i] = 1, 1
	}

	shards := parallel.Shards(t.Shards)
	rounds := syncRounds(t.Rounds)
	local := make([]*gloveShard, shards)
	var matrices [8][]*parallel.Replica // matrices[m][s] is local[s].all[m]
	for s := range local {
		st := &gloveShard{
			w: parallel.NewReplica(w, dim), wc: parallel.NewReplica(wc, dim),
			b: parallel.NewReplica(b, 1), bc: parallel.NewReplica(bc, 1),
			gw: parallel.NewReplica(gw, dim), gwc: parallel.NewReplica(gwc, dim),
			gb: parallel.NewReplica(gb, 1), gbc: parallel.NewReplica(gbc, 1),
		}
		st.all = []*parallel.Replica{st.w, st.wc, st.b, st.bc, st.gw, st.gwc, st.gb, st.gbc}
		local[s] = st
		for m, r := range st.all {
			matrices[m] = append(matrices[m], r)
		}
	}

	for epoch := 0; epoch < t.Epochs; epoch++ {
		order := shuffledOrder(counts.NNZ(), rng)
		for _, rr := range parallel.Ranges(len(order), rounds) {
			sub := order[rr.Lo:rr.Hi]
			ranges := parallel.Ranges(len(sub), shards)
			parallel.Run(t.Workers, shards, func(s int) {
				st := local[s]
				st.begin()
				for _, ei := range sub[ranges[s].Lo:ranges[s].Hi] {
					e := counts.Entries[ei]
					// The sparse matrix stores each unordered pair once; train both
					// directions so word and context roles are symmetric.
					t.update(st, dim, e.Row, e.Col, e.Val)
					if e.Row != e.Col {
						t.update(st, dim, e.Col, e.Row, e.Val)
					}
				}
			}, nil)
			for _, reps := range matrices {
				parallel.Merge(t.Workers, reps, false, nil)
			}
		}
	}

	e := embedding.New(n, dim)
	e.Words = c.Vocab.Words
	e.Meta = embedding.Meta{
		Algorithm: t.Name(), Corpus: corpusName(c), Dim: dim, Seed: seed, Precision: 32,
	}
	for i := 0; i < n*dim; i++ {
		e.Vectors.Data[i] = w[i] + wc[i]
	}
	return e
}
