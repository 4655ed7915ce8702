// Package embtrain implements the word embedding algorithms studied in the
// paper, from scratch on the synthetic corpora: CBOW with negative sampling
// (word2vec), GloVe, online matrix completion on PPMI (MC), and the
// fastText-style subword skipgram used in Appendix E.1.
//
// Every trainer is deterministic given (corpus, dim, seed) and trains on
// all CPUs by default through the sharded engine in internal/parallel: each
// epoch the work items (sentences or matrix entries) are split into a
// fixed, seed-derived set of shards, each shard runs sequential SGD on a
// private replica of the parameters with its own seeded RNG, and the shard
// deltas are folded back into the shared parameters in ascending shard
// order. Because the shard count is fixed and the reduction is ordered, the
// result is bitwise identical for every Workers setting — embedding
// instability in the experiments comes only from the modelled sources
// (corpus drift and the explicit seed), matching the paper's controlled
// setup, while retraining uses all cores.
package embtrain

import (
	"math"
	"math/rand"

	"anchor/internal/corpus"
	"anchor/internal/embedding"
	"anchor/internal/parallel"
	"anchor/internal/registry"
)

// Trainer is the common interface implemented by all embedding algorithms.
type Trainer interface {
	// Train learns an embedding of the given dimension from the corpus.
	Train(c *corpus.Corpus, dim int, seed int64) *embedding.Embedding
	// Name returns the algorithm identifier used in Meta and reports.
	Name() string
}

// Factory builds a trainer with its goroutine budget set (workers <= 0
// selects all CPUs). Implementations must keep the PR 1 determinism
// contract: the trained embedding is a pure function of (corpus, dim,
// seed) and bitwise identical for every worker count.
type Factory func(workers int) Trainer

// trainers is the pluggable algorithm registry. Registration order is the
// reporting order.
var trainers = registry.New[Factory]("algorithm")

// Register makes a trainer factory available under name to every consumer
// that resolves algorithms by name (the experiments runner, the service
// layer, the CLIs). It panics on duplicate or empty names; call it from an
// init function.
func Register(name string, f Factory) { trainers.Register(name, f) }

// Names returns the registered algorithm names in registration order.
func Names() []string { return trainers.Names() }

// CheckName returns nil when the algorithm is registered, else a
// *registry.UnknownError naming the known algorithms.
func CheckName(name string) error { return trainers.Check(name) }

func init() {
	Register("cbow", func(workers int) Trainer {
		tr := NewCBOW()
		tr.Workers = workers
		return tr
	})
	Register("glove", func(workers int) Trainer {
		tr := NewGloVe()
		tr.Workers = workers
		return tr
	})
	Register("mc", func(workers int) Trainer {
		tr := NewMC()
		tr.Workers = workers
		return tr
	})
	Register("fasttext", func(workers int) Trainer {
		tr := NewFastText()
		tr.Workers = workers
		return tr
	})
}

// Lookup returns the named trainer with default configuration and its
// Workers knob set (workers <= 0 selects all CPUs), or a
// *registry.UnknownError naming the known algorithms. Worker count only
// controls how many of the fixed training shards run concurrently;
// embeddings are bitwise identical for any value.
func Lookup(name string, workers int) (Trainer, error) {
	f, err := trainers.Lookup(name)
	if err != nil {
		return nil, err
	}
	return f(workers), nil
}

// unigramTable is the word2vec-style negative sampling table: words are
// drawn proportionally to count^power.
type unigramTable struct {
	table []int32
}

const unigramTableSize = 1 << 17

// newUnigramTable builds the sampling table from word counts. Each word
// with a nonzero count occupies the table slots between its rounded
// cumulative probability boundaries, but never fewer than one slot: under
// extreme skew the classic word2vec cumulative fill drops tail words whose
// mass rounds to zero slots, which would make them unreachable as negative
// samples. The table may exceed unigramTableSize by at most one slot per
// word; sampling normalizes by the true length.
func newUnigramTable(counts []int64, power float64) *unigramTable {
	var z float64
	for _, c := range counts {
		if c > 0 {
			z += math.Pow(float64(c), power)
		}
	}
	t := &unigramTable{table: make([]int32, 0, unigramTableSize)}
	if z == 0 {
		t.table = append(t.table, 0)
		return t
	}
	var cum float64
	for w, cnt := range counts {
		if cnt <= 0 {
			continue
		}
		cum += math.Pow(float64(cnt), power) / z
		end := int(cum*unigramTableSize + 0.5)
		if end <= len(t.table) {
			end = len(t.table) + 1
		}
		for len(t.table) < end {
			t.table = append(t.table, int32(w))
		}
	}
	return t
}

func (t *unigramTable) sample(rng *rand.Rand) int32 {
	return t.table[rng.Intn(len(t.table))]
}

// sigmoid returns 1/(1+exp(-x)) with clamping for numerical robustness.
func sigmoid(x float64) float64 {
	if x > 30 {
		return 1
	}
	if x < -30 {
		return 0
	}
	return 1 / (1 + math.Exp(-x))
}

// initMatrix fills data with the word2vec initialization: uniform in
// (-0.5/dim, 0.5/dim).
func initMatrix(data []float64, dim int, rng *rand.Rand) {
	for i := range data {
		data[i] = (rng.Float64() - 0.5) / float64(dim)
	}
}

// newTrainRNG returns the master RNG driving parameter initialization and
// the epoch shuffles; per-shard randomness is derived independently via
// parallel.ShardRNG so it never depends on scheduling.
func newTrainRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// shuffledOrder returns a seeded permutation of [0, n).
func shuffledOrder(n int, rng *rand.Rand) []int32 {
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// defaultSyncRounds is the number of synchronization rounds per epoch used
// when a trainer's Rounds knob is zero. More rounds track sequential SGD
// more closely (each shard's delta stays small relative to the loss
// landscape before it is merged) at the cost of more barriers; eight keeps
// the quality of the paper's single-threaded trainers on the synthetic
// corpora while shards stay coarse enough to parallelize.
const defaultSyncRounds = 8

// syncRounds resolves a Rounds knob: values <= 0 select defaultSyncRounds.
func syncRounds(n int) int {
	if n <= 0 {
		return defaultSyncRounds
	}
	return n
}

// tokenOffsets returns, for each shard's range over one round's slice of
// the epoch's sentence order, the number of tokens that precede it inside
// the slice, plus the slice's total token count — so every shard can
// evaluate the global linearly-decaying learning-rate schedule without
// observing the other shards' progress.
func tokenOffsets(c *corpus.Corpus, order []int32, ranges []parallel.Range) ([]float64, float64) {
	offsets := make([]float64, len(ranges))
	var cum float64
	for s, r := range ranges {
		offsets[s] = cum
		for _, si := range order[r.Lo:r.Hi] {
			cum += float64(len(c.Sentences[si]))
		}
	}
	return offsets, cum
}
