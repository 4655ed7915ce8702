// Package experiments orchestrates the reproduction of every table and
// figure in the paper: it trains and caches embedding pairs over the
// dimension/precision/seed grid, trains downstream models, computes
// embedding distance measures, and renders paper-style result tables.
// Each experiment is registered under the paper's artifact id ("fig1",
// "table3", ...) and can be run from the CLI, the benchmarks, or tests.
package experiments

import (
	"anchor/internal/corpus"
	"anchor/internal/kge"
)

// Config scopes an experiment run. The dimension ladder maps the paper's
// {25, 50, 100, 200, 400, 800} onto a laptop-scale geometric ladder; the
// precision ladder {1, 2, 4, 8, 16, 32} is the paper's exactly.
type Config struct {
	Corpus     corpus.Config
	Algorithms []string
	Dims       []int
	Precisions []int
	Seeds      []int64

	// Workers is the goroutine budget for embedding training,
	// co-occurrence counting, distance-measure evaluation, and the
	// grid sweep itself (<= 0 selects all CPUs). A few shared helpers
	// (embedding alignment, downstream-model autodiff) use the matrix
	// package's all-CPU defaults regardless. Trained embeddings and
	// measure values are bitwise identical for every value, so it is a
	// pure throughput knob and never part of an experiment's identity.
	Workers int

	// TopWords is the number of most-frequent words over which embedding
	// distance measures are computed (the paper uses the top 10k).
	TopWords int
	// Alpha is the eigenspace instability exponent (paper: 3).
	Alpha float64
	// K is the k-NN measure's neighborhood size (paper: 5).
	K int
	// KNNQueries is the number of query words for the k-NN measure
	// (paper: 1000).
	KNNQueries int

	// SentimentTasks lists the sentiment datasets to evaluate
	// (subset of sst2, mr, subj, mpqa).
	SentimentTasks []string

	// NER grid: the BiLSTM is far more expensive than the linear models,
	// so its grid may be a subset of the main ladder.
	NEREnabled             bool
	NERDims, NERPrecisions []int
	NERSeeds               []int64

	// Knowledge graph extension (Section 6.1).
	KGEGraph               kge.GraphConfig
	KGEDims, KGEPrecisions []int
	KGESeeds               []int64

	// Contextual embedding extension (Section 6.2).
	BERTHiddens, BERTPrecisions []int
	BERTSeeds                   []int64
}

// SmallConfig is the miniature configuration used by tests: every code
// path exercised, seconds not minutes.
func SmallConfig() Config {
	return Config{
		Corpus:         corpus.TestConfig(),
		Algorithms:     []string{"mc", "cbow"},
		Dims:           []int{8, 16, 32},
		Precisions:     []int{1, 4, 32},
		Seeds:          []int64{1},
		TopWords:       120,
		Alpha:          3,
		K:              5,
		KNNQueries:     120,
		SentimentTasks: []string{"sst2", "subj"},
		NEREnabled:     true,
		NERDims:        []int{8, 32},
		NERPrecisions:  []int{1, 32},
		NERSeeds:       []int64{1},
		KGEGraph:       kge.TestGraphConfig(),
		KGEDims:        []int{4, 8, 16},
		KGEPrecisions:  []int{1, 4, 32},
		KGESeeds:       []int64{1},
		BERTHiddens:    []int{8, 16},
		BERTPrecisions: []int{1, 4, 32},
		BERTSeeds:      []int64{1},
	}
}

// BenchConfig is the scale the benchmark harness runs at: large enough
// for the paper's trends to be visible, small enough for a laptop bench
// session. The full-scale run is ReproConfig.
func BenchConfig() Config {
	ccfg := corpus.DefaultConfig()
	ccfg.VocabSize = 800
	ccfg.NumDocs = 400
	return Config{
		Corpus:         ccfg,
		Algorithms:     []string{"cbow", "glove", "mc"},
		Dims:           []int{8, 16, 32, 64, 128},
		Precisions:     []int{1, 2, 4, 8, 32},
		Seeds:          []int64{1, 2},
		TopWords:       300,
		Alpha:          3,
		K:              5,
		KNNQueries:     300,
		SentimentTasks: []string{"sst2", "mr", "subj", "mpqa"},
		NEREnabled:     true,
		NERDims:        []int{8, 32, 128},
		NERPrecisions:  []int{1, 4, 32},
		NERSeeds:       []int64{1},
		KGEGraph:       kge.DefaultGraphConfig(),
		KGEDims:        []int{4, 8, 16, 32, 64},
		KGEPrecisions:  []int{1, 2, 4, 8, 32},
		KGESeeds:       []int64{1, 2},
		BERTHiddens:    []int{8, 16, 32},
		BERTPrecisions: []int{1, 2, 4, 8, 32},
		BERTSeeds:      []int64{1},
	}
}

// ReproConfig is the full-scale configuration (all algorithms, the whole
// 6x6 grid, 3 seeds), the closest analogue of the paper's sweep. Expect a
// long run; use `go run ./cmd/anchor experiment -all -config repro`.
func ReproConfig() Config {
	cfg := BenchConfig()
	cfg.Corpus = corpus.DefaultConfig()
	cfg.Dims = []int{8, 16, 32, 64, 128, 256}
	cfg.Precisions = []int{1, 2, 4, 8, 16, 32}
	cfg.Seeds = []int64{1, 2, 3}
	cfg.TopWords = 400
	cfg.KNNQueries = 400
	cfg.NERDims = []int{8, 32, 128}
	cfg.NERPrecisions = []int{1, 4, 32}
	cfg.NERSeeds = []int64{1, 2}
	cfg.BERTHiddens = []int{8, 16, 32, 64}
	cfg.BERTSeeds = []int64{1, 2}
	return cfg
}

// midDim returns the middle of the dimension ladder, the paper's choice
// for precision-only sweeps (dimension 100 of {25..800}).
func (c Config) midDim() int { return c.Dims[(len(c.Dims)-1)/2] }

// maxDim returns the top of the ladder (anchor embeddings for EIS).
func (c Config) maxDim() int { return c.Dims[len(c.Dims)-1] }
