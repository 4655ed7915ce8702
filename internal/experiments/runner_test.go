package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"anchor/internal/compress"
	"anchor/internal/corpus"
	"anchor/internal/embedding"
	"anchor/internal/embtrain"
	"anchor/internal/parallel"
	"anchor/internal/registry"
	"anchor/internal/store"
	"anchor/internal/tasks"
)

// countedAlgo is MC registered under its own name with every Train call
// counted in trainCalls, so a test can tell whether a runner trained.
const countedAlgo = "mc-counted"

var trainCalls atomic.Int64

type countedTrainer struct{ embtrain.Trainer }

func (t countedTrainer) Train(c *corpus.Corpus, dim int, seed int64) *embedding.Embedding {
	trainCalls.Add(1)
	return t.Trainer.Train(c, dim, seed)
}

func init() {
	embtrain.Register(countedAlgo, func(workers int) embtrain.Trainer {
		tr := embtrain.NewMC()
		tr.Workers = workers
		return countedTrainer{tr}
	})
}

// embeddingDigest hashes an embedding's provenance, vocabulary (row
// order) and vectors, floats as little-endian IEEE 754 bits.
func embeddingDigest(e *embedding.Embedding) string {
	h := sha256.New()
	h.Write([]byte(e.Meta.String() + "\n"))
	for _, w := range e.Words {
		h.Write([]byte(w + "\n"))
	}
	var b [8]byte
	for _, x := range e.Vectors.Data {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func sameEmbedding(a, b *embedding.Embedding) bool {
	return embeddingDigest(a) == embeddingDigest(b)
}

func TestPairCachedAndAligned(t *testing.T) {
	ctx := context.Background()
	a17, a18, err := sharedRunner.Pair(ctx, "mc", 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	b17, b18, err := sharedRunner.Pair(ctx, "mc", 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a17 != b17 || a18 != b18 {
		t.Fatal("Pair not cached")
	}
	if a18.Meta.Corpus != "wiki18a" {
		t.Fatalf("wiki18 pair not marked aligned: %q", a18.Meta.Corpus)
	}
	if a17.Dim() != 8 || a18.Dim() != 8 {
		t.Fatal("pair dimension wrong")
	}
}

func TestQuantizedPairPrecisionRecorded(t *testing.T) {
	ctx := context.Background()
	q17, q18, err := sharedRunner.QuantizedPair(ctx, "mc", 8, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if q17.Meta.Precision != 4 || q18.Meta.Precision != 4 {
		t.Fatalf("precisions %d/%d", q17.Meta.Precision, q18.Meta.Precision)
	}
	// Quantization returns copies; the cached full-precision pair must be
	// untouched.
	e17, _, err := sharedRunner.Pair(ctx, "mc", 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if e17.Meta.Precision != 32 {
		t.Fatal("cached pair mutated by quantization")
	}
}

func TestAnchorsShape(t *testing.T) {
	e, et, err := sharedRunner.Anchors(context.Background(), "mc", 1)
	if err != nil {
		t.Fatal(err)
	}
	if e.Rows() != sharedRunner.Cfg.TopWords || et.Rows() != sharedRunner.Cfg.TopWords {
		t.Fatalf("anchor rows %d/%d, want %d", e.Rows(), et.Rows(), sharedRunner.Cfg.TopWords)
	}
	if e.Dim() != sharedRunner.Cfg.maxDim() {
		t.Fatalf("anchor dim %d, want max dim %d", e.Dim(), sharedRunner.Cfg.maxDim())
	}
}

func TestTaskEvaluatorCachedAndErrorsOnUnknown(t *testing.T) {
	a, err := taskEval[*tasks.Sentiment](sharedRunner, "sst2")
	if err != nil {
		t.Fatal(err)
	}
	b, err := taskEval[*tasks.Sentiment](sharedRunner, "sst2")
	if err != nil {
		t.Fatal(err)
	}
	if a.Data != b.Data {
		t.Fatal("dataset not cached")
	}
	var unknown *registry.UnknownError
	if _, err := sharedRunner.TaskEvaluator("imdb"); !errors.As(err, &unknown) {
		t.Fatalf("unknown task: err = %v, want *registry.UnknownError", err)
	}
	if _, err := taskEval[*tasks.NER](sharedRunner, "sst2"); err == nil {
		t.Fatal("sst2 resolved as an NER task")
	}
}

func TestPairUnknownAlgorithmErrors(t *testing.T) {
	var unknown *registry.UnknownError
	if _, _, err := sharedRunner.Pair(context.Background(), "elmo", 8, 1); !errors.As(err, &unknown) {
		t.Fatalf("err = %v, want *registry.UnknownError", err)
	}
	cfg := tinyGridConfig()
	cfg.Algorithms = []string{"elmo"}
	if _, err := Run(context.Background(), NewRunner(cfg), "table1"); !errors.As(err, &unknown) {
		t.Fatalf("table1 over an unknown algorithm: err = %v, want *registry.UnknownError", err)
	}
}

func TestConfigLadderHelpers(t *testing.T) {
	cfg := SmallConfig()
	if cfg.midDim() != 16 || cfg.maxDim() != 32 {
		t.Fatalf("mid=%d max=%d", cfg.midDim(), cfg.maxDim())
	}
	bench := BenchConfig()
	repro := ReproConfig()
	if len(bench.Dims) >= len(repro.Dims) {
		t.Fatal("repro ladder should extend bench ladder")
	}
	for _, c := range []Config{cfg, bench, repro} {
		if c.Alpha != 3 || c.K != 5 {
			t.Fatal("paper hyperparameters (alpha=3, k=5) must be defaults")
		}
	}
}

func TestNERGridDisabled(t *testing.T) {
	cfg := SmallConfig()
	cfg.NEREnabled = false
	r := NewRunner(cfg)
	if got, err := r.NERGrid(context.Background()); got != nil || err != nil {
		t.Fatalf("disabled NER grid should be nil, got %d cells, err %v", len(got), err)
	}
}

// Pair trains a cold pair's two years concurrently when the worker
// budget allows; the pair must be bitwise the one a sequential
// (Workers=1) runner trains.
func TestPairBitwiseAcrossWorkerBudgets(t *testing.T) {
	ctx := context.Background()
	seq := SmallConfig()
	seq.Workers = 1
	r1, r0 := NewRunner(seq), NewRunner(SmallConfig())
	for _, algo := range []string{"mc", "glove"} {
		a17, a18, err := r1.Pair(ctx, algo, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		b17, b18, err := r0.Pair(ctx, algo, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !sameEmbedding(a17, b17) || !sameEmbedding(a18, b18) {
			t.Errorf("%s: pair differs between Workers=1 and the default budget", algo)
		}
	}
}

// A cold quantized Wiki'18 snapshot, whose two trainings run side by
// side, is bitwise the artifact composed one step at a time: Wiki'17's
// clip applied to the Wiki'18 training. A quantized Wiki'17 snapshot
// trains only its own year, and the Wiki'18 one then only the other.
func TestQuantizedSnapshotWiki18(t *testing.T) {
	ctx := context.Background()
	got, err := NewRunner(SmallConfig()).QuantizedSnapshot(ctx, "mc", 2018, 8, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	seq := SmallConfig()
	seq.Workers = 1
	ref := NewRunner(seq)
	e17, err17 := ref.Train(ctx, "mc", 2017, 8, 1)
	e18, err18 := ref.Train(ctx, "mc", 2018, 8, 1)
	if err := errors.Join(err17, err18); err != nil {
		t.Fatal(err)
	}
	want := compress.QuantizeWorkers(e18, 4, compress.OptimalClipWorkers(e17.Vectors.Data, 4, 1), 1)
	if !sameEmbedding(got, want) {
		t.Fatal("cold quantized Wiki'18 snapshot differs from the composed artifact")
	}

	r := NewRunner(SmallConfig())
	for _, year := range []int{2017, 2018} {
		before := trainCalls.Load()
		if _, err := r.QuantizedSnapshot(ctx, countedAlgo, year, 8, 4, 1); err != nil {
			t.Fatal(err)
		}
		if n := trainCalls.Load() - before; n != 1 {
			t.Errorf("quantized %d snapshot trained %d embeddings, want 1", year, n)
		}
	}
}

// A quantized snapshot whose context is canceled before it trains
// returns context.Canceled, trains nothing and stores nothing.
func TestQuantizedSnapshotCanceledStoresNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := NewRunner(SmallConfig())
	before := trainCalls.Load()
	for _, year := range []int{2017, 2018} {
		if _, err := r.QuantizedSnapshot(ctx, countedAlgo, year, 8, 4, 1); !errors.Is(err, context.Canceled) {
			t.Errorf("year %d: err = %v, want context.Canceled", year, err)
		}
	}
	if n := trainCalls.Load() - before; n != 0 {
		t.Errorf("canceled snapshots trained %d embeddings", n)
	}
	if st := r.Store().Stats(); st != (store.Stats{}) {
		t.Errorf("canceled snapshots touched the store: %+v", st)
	}
}

// A select after /v1/train of both years trains nothing: the pair takes
// both snapshots from their store slots and aligns a copy of the shared
// Wiki'18 artifact, which stays unaligned.
func TestSelectAfterTrainingBothYearsTrainsNothing(t *testing.T) {
	ctx := context.Background()
	r := NewRunner(SmallConfig())
	var trained [2]*embedding.Embedding
	for i, year := range []int{2017, 2018} {
		e, err := r.Train(ctx, countedAlgo, year, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		trained[i] = e
	}
	before := trainCalls.Load()
	// Service.Select's reads: the anchors at the grid's largest dimension,
	// then every (dim, bits) cell's quantized pair.
	if _, _, err := r.AnchorsAt(ctx, countedAlgo, 8, 1); err != nil {
		t.Fatal(err)
	}
	for _, bits := range []int{1, 4, 32} {
		if _, _, err := r.QuantizedPair(ctx, countedAlgo, 8, bits, 1); err != nil {
			t.Fatal(err)
		}
	}
	if n := trainCalls.Load() - before; n != 0 {
		t.Fatalf("select trained %d embeddings after both years were trained", n)
	}
	e17, e18a, err := r.Pair(ctx, countedAlgo, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if e17 != trained[0] {
		t.Error("pair's Wiki'17 half is not the trained artifact")
	}
	if e18a == trained[1] || trained[1].Meta.Corpus != "wiki18" || e18a.Meta.Corpus != "wiki18a" {
		t.Errorf("alignment touched the shared Wiki'18 artifact (%q, aligned %q)", trained[1].Meta.Corpus, e18a.Meta.Corpus)
	}
}

// Trainings on one corpus share its co-occurrence counts, computed once:
// concurrent trainings match the bytes trained on a freshly generated
// corpus, and later ones still do after the corpus's sentences are
// dropped, because the count-based trainers read only the shared counts.
func TestTrainingsShareCorpusCounts(t *testing.T) {
	ctx := context.Background()
	cfg := SmallConfig()
	r := NewRunner(cfg)
	c17, _ := r.Corpora()
	fresh := corpus.Generate(cfg.Corpus, corpus.Wiki17)
	algos := []string{"mc", "glove"}
	for seed := int64(1); seed <= 2; seed++ {
		if seed == 2 {
			c17.Sentences = nil
		}
		got := make([]*embedding.Embedding, len(algos))
		errs := make([]error, len(algos))
		parallel.Run(len(algos), len(algos), func(i int) {
			got[i], errs[i] = r.Train(ctx, algos[i], 2017, 8, seed)
		}, nil)
		for i, algo := range algos {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			tr, err := embtrain.Lookup(algo, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !sameEmbedding(got[i], tr.Train(fresh, 8, seed)) {
				t.Errorf("%s seed %d: differs from a training on a fresh corpus", algo, seed)
			}
		}
	}
}

// A context canceled before Run starts trains nothing, for every
// artifact: each returns context.Canceled before its first training
// (table9, whose tasks SmallConfig leaves out, has nothing to compute).
func TestRunCanceledBeforeStartTrainsNothing(t *testing.T) {
	cfg := SmallConfig()
	cfg.Algorithms = []string{countedAlgo}
	r := NewRunner(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := trainCalls.Load()
	for _, id := range IDs() {
		tables, err := Run(ctx, r, id)
		if id == "table9" && err == nil {
			continue
		}
		if !errors.Is(err, context.Canceled) || tables != nil {
			t.Errorf("%s: err = %v, %d tables; want context.Canceled and none", id, err, len(tables))
		}
	}
	if n := trainCalls.Load() - before; n != 0 {
		t.Fatalf("canceled runs trained %d embeddings", n)
	}
	if n := r.Store().Stats().Computes; n != 0 {
		t.Fatalf("canceled runs computed %d store artifacts", n)
	}
}
