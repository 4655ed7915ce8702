package embtrain

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"anchor/internal/cooc"
	"anchor/internal/corpus"
	"anchor/internal/embedding"
	"anchor/internal/floats"
	"anchor/internal/parallel"
)

// trainMCReference is MC's training as it ran before the lockstep pairs:
// each round's update phase runs one shard per task, and each shard
// applies its entries one at a time through floats.Dot and an update loop
// that reads every new value back through the row slices. The epoch order
// comes from rng.Shuffle over a fresh identity slice, as it did before
// shuffleInto. It is MC.Train's oracle: the two must agree bit for bit.
func trainMCReference(t *MC, c *corpus.Corpus, dim int, seed int64) *embedding.Embedding {
	ppmi := cooc.SharedPPMI(c, t.Window, cooc.Uniform, t.Workers)
	n := c.Vocab.Size()
	rng := newTrainRNG(seed)

	e := embedding.New(n, dim)
	initStd := 0.3 / math.Sqrt(float64(dim))
	for i := range e.Vectors.Data {
		e.Vectors.Data[i] = rng.NormFloat64() * initStd
	}
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
	for epoch := 0; epoch < t.Epochs; epoch++ {
		if epoch >= t.DecayEpochs {
			lr *= t.DecayRate
		}
		order := make([]int32, ppmi.NNZ())
		for i := range order {
			order[i] = int32(i)
		}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
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
					var si, sj float64
					for k := 0; k < dim; k++ {
						xik, xjk := xi[k], xj[k]
						xi[k] -= g * xjk
						xj[k] -= g * xik
						si += xi[k] * xi[k]
						sj += xj[k] * xj[k]
					}
					clampNorm(xi, math.Sqrt(si), maxNorm)
					clampNorm(xj, math.Sqrt(sj), maxNorm)
				}
			}, nil)
			parallel.Merge(t.Workers, local, true, func(i int) {
				project(e.Vectors.Row(i), maxNorm)
			})
		}
	}
	return e
}

// TestMCLockstepPairsMatchReference requires MC's lockstep-pair rounds to
// equal trainMCReference bit for bit: at dims 1, 3, 8, 33 and 128 (odd
// and even lengths, one and many row-length multiples) on both test
// corpora at 1, 2 and 3 workers, and at d=32 on the bench-config corpus,
// whose rounds hold entry counts the test corpora's do not. The trainings
// run 8 epochs, the last 4 decayed, at a learning rate of 0.5 rather than
// 0.2: that reaches every path of the step within them (pairs, diagonal
// entries, a longer range's last entry, residual clipping both ways, and
// projection, where a row's summed squares decide its scale), and keeps
// the race detector's run short.
func TestMCLockstepPairsMatchReference(t *testing.T) {
	bench := corpus.DefaultConfig()
	bench.VocabSize, bench.NumDocs = 800, 400 // experiments.BenchConfig's corpus
	type tc struct {
		c       *corpus.Corpus
		dims    []int
		workers []int
	}
	var cases []tc
	for _, year := range []corpus.Year{corpus.Wiki17, corpus.Wiki18} {
		cases = append(cases, tc{testCorpus(t, year), []int{1, 3, 8, 33, 128}, []int{1, 2, 3}})
	}
	cases = append(cases, tc{corpus.Generate(bench, corpus.Wiki18), []int{32}, []int{2}})
	newMC := func(workers int) *MC {
		tr := NewMC()
		tr.Epochs, tr.DecayEpochs, tr.LR, tr.Workers = 8, 4, 0.5, workers
		return tr
	}
	for _, cs := range cases {
		for _, dim := range cs.dims {
			want := trainMCReference(newMC(1), cs.c, dim, 5)
			for _, workers := range cs.workers {
				t.Run(fmt.Sprintf("%s/vocab=%d/dim=%d/workers=%d", corpusName(cs.c), cs.c.Vocab.Size(), dim, workers), func(t *testing.T) {
					got := newMC(workers).Train(cs.c, dim, 5)
					for i, w := range want.Vectors.Data {
						if math.Float64bits(got.Vectors.Data[i]) != math.Float64bits(w) {
							t.Fatalf("element %d = %v, reference %v", i, got.Vectors.Data[i], w)
						}
					}
				})
			}
		}
	}
}

// TestShuffleIntoMatchesShuffle requires shuffleInto to produce
// rng.Shuffle's permutation of the identity and to leave the RNG where
// Shuffle does, from a buffer holding a previous epoch's order.
func TestShuffleIntoMatchesShuffle(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 1000, 60037} {
		for _, seed := range []int64{1, 2, 42, 1 << 40} {
			ref, got := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			order := make([]int32, n)
			for epoch := 0; epoch < 2; epoch++ {
				want := make([]int32, n)
				for i := range want {
					want[i] = int32(i)
				}
				ref.Shuffle(n, func(i, j int) { want[i], want[j] = want[j], want[i] })
				shuffleInto(order, got)
				for i := range want {
					if order[i] != want[i] {
						t.Fatalf("n=%d seed=%d epoch %d: order[%d] = %d, Shuffle gives %d", n, seed, epoch, i, order[i], want[i])
					}
				}
				if a, b := got.Int63(), ref.Int63(); a != b {
					t.Fatalf("n=%d seed=%d epoch %d: next draw %d, after Shuffle %d", n, seed, epoch, a, b)
				}
			}
		}
	}
}
