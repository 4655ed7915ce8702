// Package anchor is a from-scratch Go reproduction of "Understanding the
// Downstream Instability of Word Embeddings" (Leszczynski et al., MLSys
// 2020). It studies how retraining word embeddings on slightly different
// corpora changes the predictions of downstream NLP models, exposes the
// paper's stability-memory tradeoff, and implements its main contribution:
// the eigenspace instability measure, a theoretically grounded criterion
// for selecting embedding dimension-precision parameters without training
// downstream models.
//
// The package is a facade over the internal implementation:
//
//   - corpora:   synthetic Wikipedia-snapshot pairs with controlled drift
//   - trainers:  CBOW, GloVe, matrix completion (MC), fastText subword —
//     all running on the deterministic sharded engine in internal/parallel,
//     so training uses every core yet stays bitwise reproducible for any
//     worker count
//   - compression: uniform quantization with shared clipping thresholds
//   - measures:  eigenspace instability, k-NN, semantic displacement,
//     PIP loss, eigenspace overlap — built on cache-blocked parallel
//     matrix kernels and a batched k-NN engine, deterministic for any
//     worker count
//   - downstream: sentiment (linear BOW, CNN), NER (BiLSTM, BiLSTM-CRF),
//     knowledge graph embeddings (TransE), mini-BERT
//   - selection: dimension-precision selection under memory budgets
//   - experiments: one runner per paper table/figure
//
// # Quickstart
//
// The primary entry point is the Service: a long-lived, concurrency-safe
// handle whose methods take a context, resolve algorithms, measures, and
// downstream tasks through pluggable registries, and cache every trained
// embedding in a persistent artifact store.
//
//	svc, err := anchor.NewService(
//		anchor.WithConfig(anchor.SmallExperimentConfig()),
//		anchor.WithCacheDir(".anchor-cache"), // embeddings survive restarts
//	)
//	if err != nil { ... }
//	ctx := context.Background()
//
//	// Cheap prediction: every distance measure at one grid cell.
//	rep, err := svc.MeasureCell(ctx, "cbow", 64, 4, 1)
//	fmt.Println(rep.Values["eigenspace-instability"])
//
//	// Ground truth: train the downstream model pair and diff predictions.
//	st, err := svc.Stability(ctx, "cbow", "sst2", 64, 4, 1)
//	fmt.Println(st.Disagreement, st.Accuracy)
//
//	// The paper's payoff: pick dimension x precision under a memory
//	// budget without training downstream models.
//	sel, err := svc.Select(ctx, anchor.SelectRequest{
//		Algo: "cbow", Dims: []int{32, 64}, Precisions: []int{1, 4, 32},
//		BudgetBits: 256,
//	})
//	fmt.Println(sel.Best)
//
// The same API serves over HTTP: `anchor serve -addr :8080` exposes
// /v1/train, /v1/measures, /v1/stability, /v1/select, and /v1/healthz
// (see internal/serve). New trainers, measures, and tasks plug in by name
// via embtrain.Register, core.RegisterMeasure, and tasks.Register.
//
// The flat helper functions below (AllMeasures, QuantizePair, ...) are
// pure functions over embeddings the caller already has; everything that
// trains, caches, or can be canceled goes through the Service.
package anchor

import (
	"anchor/internal/compress"
	"anchor/internal/core"
	"anchor/internal/corpus"
	"anchor/internal/embedding"
	"anchor/internal/embtrain"
	"anchor/internal/experiments"
	"anchor/internal/selection"
	"anchor/internal/stats"
)

// Re-exported core types. See the internal packages for full documentation.
type (
	// Embedding is a vocabulary-aligned word embedding matrix.
	Embedding = embedding.Embedding
	// EmbeddingMeta records an embedding's provenance.
	EmbeddingMeta = embedding.Meta
	// Corpus is a generated snapshot of the synthetic corpus.
	Corpus = corpus.Corpus
	// CorpusConfig parameterizes corpus generation.
	CorpusConfig = corpus.Config
	// Measure is an embedding distance measure predicting downstream
	// instability (larger = more unstable).
	Measure = core.Measure
	// EigenspaceInstability is the paper's proposed measure (Definition 2).
	EigenspaceInstability = core.EigenspaceInstability
	// Candidate is a dimension-precision configuration for selection.
	Candidate = selection.Candidate
	// ExperimentConfig scopes a reproduction run.
	ExperimentConfig = experiments.Config
	// LinearLogFit is the fitted stability-memory trend.
	LinearLogFit = stats.LinearLogFit
	// LinearLogPoint is one observation for the trend fit.
	LinearLogPoint = stats.LinearLogPoint
)

// Corpus snapshot years.
const (
	Wiki17 = corpus.Wiki17
	Wiki18 = corpus.Wiki18
)

// DefaultCorpusConfig returns the repro-scale corpus configuration.
func DefaultCorpusConfig() CorpusConfig { return corpus.DefaultConfig() }

// GenerateCorpus deterministically generates a snapshot.
func GenerateCorpus(cfg CorpusConfig, year corpus.Year) *Corpus {
	return corpus.Generate(cfg, year)
}

// Algorithms lists the registered embedding algorithm names (see
// embtrain.Register for plugging in new ones).
func Algorithms() []string { return embtrain.Names() }

// QuantizePair compresses an embedding pair to the given precision (bits
// per entry) with uniform quantization, computing the clipping threshold
// on the first embedding and sharing it with the second as the paper
// prescribes. bits = 32 means full precision.
func QuantizePair(x, xTilde *Embedding, bits int) (*Embedding, *Embedding) {
	return compress.QuantizePair(x, xTilde, bits)
}

// AlignQuantize performs the paper's full Section 3 preparation ritual in
// one call: it rotates b onto a with orthogonal Procrustes (in place),
// tags b's provenance as the aligned variant, and quantizes the pair to
// the given precision with a shared clip. It replaces the align ->
// meta-tag -> quantize sequence previously inlined at every call site.
func AlignQuantize(a, b *Embedding, bits int) (*Embedding, *Embedding) {
	embedding.AlignTagged(a, b)
	return compress.QuantizePair(a, b, bits)
}

// NewEigenspaceInstability returns the paper's measure with anchors
// (e, eTilde) and the selected alpha = 3.
func NewEigenspaceInstability(e, eTilde *Embedding) *EigenspaceInstability {
	return core.NewEigenspaceInstability(e, eTilde)
}

// AllMeasures returns the paper's five embedding distance measures in
// reporting order, with the given EIS anchors, running on all CPUs.
func AllMeasures(e, eTilde *Embedding) []Measure { return core.AllMeasures(e, eTilde) }

// AllMeasuresWorkers is AllMeasures with an explicit goroutine budget
// (workers <= 0 selects all CPUs). Like training, measure evaluation is
// bitwise deterministic: every measure returns the same value for every
// worker count.
func AllMeasuresWorkers(e, eTilde *Embedding, workers int) []Measure {
	return core.AllMeasuresWorkers(e, eTilde, workers)
}

// PredictionDisagreement returns the fraction of aligned predictions that
// differ between two downstream models (Definition 1, zero-one loss).
func PredictionDisagreement[T comparable](a, b []T) float64 {
	return core.PredictionDisagreement(a, b)
}

// PredictionDisagreementPct returns PredictionDisagreement in percent.
func PredictionDisagreementPct[T comparable](a, b []T) float64 {
	return core.PredictionDisagreementPct(a, b)
}

// SelectUnderBudget picks, within each memory budget (dim x precision)
// group, the candidate minimizing the named measure, and reports the mean
// and worst absolute distance to the oracle instability (Section 5.2's
// harder selection setting).
func SelectUnderBudget(cands []Candidate, measure string) (mean, worst float64) {
	return selection.OracleDistance(cands, selection.MeasureSelector(measure))
}

// PairwiseSelectionError reports how often the named measure picks the
// less stable of two candidate configurations (Section 5.2's first
// selection setting).
func PairwiseSelectionError(cands []Candidate, measure string) float64 {
	return selection.PairwiseError(cands, measure)
}

// FitStabilityMemoryTrend fits the paper's linear-log rule of thumb
// DI ≈ C_task − slope·log2(memory) to observations.
func FitStabilityMemoryTrend(points []LinearLogPoint) LinearLogFit {
	return stats.FitLinearLog(points)
}

// Experiment configurations for reproduction runs.
func SmallExperimentConfig() ExperimentConfig { return experiments.SmallConfig() }

// BenchExperimentConfig returns the benchmark-scale configuration.
func BenchExperimentConfig() ExperimentConfig { return experiments.BenchConfig() }

// ReproExperimentConfig returns the full-scale configuration.
func ReproExperimentConfig() ExperimentConfig { return experiments.ReproConfig() }

// ExperimentIDs lists every reproducible paper artifact.
func ExperimentIDs() []string { return experiments.IDs() }
