package experiments

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"

	"anchor/internal/compress"
	"anchor/internal/core"
	"anchor/internal/corpus"
	"anchor/internal/embedding"
	"anchor/internal/embtrain"
	"anchor/internal/parallel"
	"anchor/internal/store"
	"anchor/internal/tasks"
)

// Runner executes experiments against a Config. Expensive shared
// artifacts are cached so that running the whole suite trains each
// embedding exactly once: trained, aligned, and quantized embeddings live
// in an artifact store (memory-only by default; give the store a cache
// directory and they survive restarts), downstream task datasets are
// generated once per task, and the measurement grid is cached per
// configuration.
//
// Trainers, measures, and downstream tasks are resolved through their
// registries (embtrain.Register, core.RegisterMeasure, tasks.Register),
// so new backends plug in by name. Every method that trains or measures
// takes the caller's context and returns an error (unknown names
// included); cancellation stops the work before its next training, grid
// cell, or task.
type Runner struct {
	Cfg Config

	store *store.Store

	mu        sync.Mutex
	c17, c18  *corpus.Corpus
	taskCache map[string]tasks.Evaluator
	topIDs    []int
	gridCache map[string][]Cell
}

// NewRunner returns a Runner with an unbounded in-memory artifact store.
func NewRunner(cfg Config) *Runner {
	return NewRunnerWithStore(cfg, store.Memory())
}

// NewRunnerWithStore returns a Runner backed by the given artifact store;
// a store opened on a cache directory makes trained embeddings survive
// process restarts.
func NewRunnerWithStore(cfg Config, st *store.Store) *Runner {
	return &Runner{
		Cfg:       cfg,
		store:     st,
		taskCache: map[string]tasks.Evaluator{},
		gridCache: map[string][]Cell{},
	}
}

// Store exposes the runner's artifact store (for stats reporting).
func (r *Runner) Store() *store.Store { return r.store }

// corpusScope hashes the corpus generation config into the artifact-store
// key scope, so stores shared between differently-configured runners can
// never serve an embedding trained on the wrong corpus.
func corpusScope(cfg corpus.Config) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%#v", cfg)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Corpora returns the two snapshots, generating them on first use.
func (r *Runner) Corpora() (*corpus.Corpus, *corpus.Corpus) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.c17 == nil {
		r.c17 = corpus.Generate(r.Cfg.Corpus, corpus.Wiki17)
		r.c18 = corpus.Generate(r.Cfg.Corpus, corpus.Wiki18)
	}
	return r.c17, r.c18
}

// TopWordIDs returns the ids of the most frequent Wiki'17 words used for
// distance measures.
func (r *Runner) TopWordIDs() []int {
	c17, _ := r.Corpora()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.topIDs == nil {
		r.topIDs = c17.TopWords(r.Cfg.TopWords)
	}
	return r.topIDs
}

// embKey builds the artifact-store key for an embedding of this runner's
// corpus configuration.
func (r *Runner) embKey(algo, corpusTag string, dim int, seed int64, bits int) store.Key {
	return store.Key{
		Algo: algo, Corpus: corpusTag, Dim: dim, Seed: seed, Bits: bits,
		Scope: corpusScope(r.Cfg.Corpus),
	}
}

// Train returns the single unaligned embedding for (algo, year, dim,
// seed) from the artifact store, training it on a miss. year selects the
// snapshot (2017 or 2018).
func (r *Runner) Train(ctx context.Context, algo string, year, dim int, seed int64) (*embedding.Embedding, error) {
	return r.train(ctx, algo, year, dim, seed, r.Cfg.Workers)
}

// train is Train with the training's goroutine budget given
// explicitly; the trained bits never depend on it.
func (r *Runner) train(ctx context.Context, algo string, year, dim int, seed int64, workers int) (*embedding.Embedding, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var tag string
	switch year {
	case 2017:
		tag = "wiki17"
	case 2018:
		tag = "wiki18"
	default:
		return nil, fmt.Errorf("experiments: year must be 2017 or 2018, got %d", year)
	}
	c17, c18 := r.Corpora()
	c := c17
	if year == 2018 {
		c = c18
	}
	return r.store.Get(r.embKey(algo, tag, dim, seed, 32), func() (*embedding.Embedding, error) {
		tr, err := embtrain.Lookup(algo, workers)
		if err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return tr.Train(c, dim, seed), nil
	})
}

// Pair returns the full-precision embedding pair for (algo, dim,
// seed): the Wiki'17 embedding and the Wiki'18 embedding already aligned
// to it with orthogonal Procrustes (Section 3's protocol). Both come from
// the artifact store, so a warm store serves the pair without retraining.
// On a miss the two snapshots come from their single-artifact store slots
// (so a pair never retrains what /v1/train or a restart's disk tier
// already produced), trained concurrently when the worker budget allows,
// each on its share of it; the aligned Wiki'18 embedding is a rotated copy
// of the shared unaligned one.
func (r *Runner) Pair(ctx context.Context, algo string, dim int, seed int64) (*embedding.Embedding, *embedding.Embedding, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	k17 := r.embKey(algo, "wiki17", dim, seed, 32)
	k18 := r.embKey(algo, "wiki18a", dim, seed, 32)
	return r.store.GetPair(k17, k18, func() (*embedding.Embedding, *embedding.Embedding, error) {
		workers := parallel.Workers(r.Cfg.Workers)
		var (
			years = [2]int{2017, 2018}
			embs  [2]*embedding.Embedding
			errs  [2]error
		)
		parallel.Run(workers, len(years), func(i int) {
			embs[i], errs[i] = r.train(ctx, algo, years[i], dim, seed, max(1, workers/len(years)))
		}, nil)
		for _, err := range errs {
			if err != nil {
				return nil, nil, err
			}
		}
		e18 := embs[1].Clone()
		embedding.AlignTagged(embs[0], e18)
		return embs[0], e18, nil
	})
}

// QuantizedPair returns the (aligned) pair compressed to the given
// precision with a shared clip. Quantized variants are store artifacts
// too, keyed by their precision, so repeated queries at the same cell
// skip even the quantization pass.
func (r *Runner) QuantizedPair(ctx context.Context, algo string, dim, prec int, seed int64) (*embedding.Embedding, *embedding.Embedding, error) {
	if prec == 32 {
		return r.Pair(ctx, algo, dim, seed)
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	k17 := r.embKey(algo, "wiki17", dim, seed, prec)
	k18 := r.embKey(algo, "wiki18a", dim, seed, prec)
	return r.store.GetPair(k17, k18, func() (*embedding.Embedding, *embedding.Embedding, error) {
		e17, e18, err := r.Pair(ctx, algo, dim, seed)
		if err != nil {
			return nil, nil, err
		}
		q17, q18 := compress.QuantizePairWorkers(e17, e18, prec, r.Cfg.Workers)
		return q17, q18, nil
	})
}

// QuantizedSnapshot returns the single unaligned embedding for (algo,
// year, dim, seed) compressed to the given precision, for the serving
// read path. The clip is always learned on the Wiki'17 snapshot, matching
// QuantizedPair's shared-clip convention, so the 2017 and 2018
// snapshots of one cell stay directly comparable. bits >= 32 is the
// full-precision Train artifact; quantized variants are store
// artifacts keyed by their precision.
func (r *Runner) QuantizedSnapshot(ctx context.Context, algo string, year, dim, bits int, seed int64) (*embedding.Embedding, error) {
	if bits >= compress.FullPrecision {
		return r.Train(ctx, algo, year, dim, seed)
	}
	if bits < 1 {
		return nil, fmt.Errorf("experiments: precision must be in 1..32, got %d", bits)
	}
	var tag string
	switch year {
	case 2017:
		tag = "wiki17"
	case 2018:
		tag = "wiki18"
	default:
		return nil, fmt.Errorf("experiments: year must be 2017 or 2018, got %d", year)
	}
	return r.store.Get(r.embKey(algo, tag, dim, seed, bits), func() (*embedding.Embedding, error) {
		e17, err := r.Train(ctx, algo, 2017, dim, seed)
		if err != nil {
			return nil, err
		}
		clip := compress.OptimalClipWorkers(e17.Vectors.Data, bits, r.Cfg.Workers)
		e := e17
		if year == 2018 {
			if e, err = r.Train(ctx, algo, 2018, dim, seed); err != nil {
				return nil, err
			}
		}
		return compress.QuantizeWorkers(e, bits, clip, r.Cfg.Workers), nil
	})
}

// Anchors returns the EIS anchor embeddings for an algorithm and seed:
// the highest-dimensional full-precision pair of the configured ladder,
// sliced to the top words.
func (r *Runner) Anchors(ctx context.Context, algo string, seed int64) (*embedding.Embedding, *embedding.Embedding, error) {
	return r.AnchorsAt(ctx, algo, r.Cfg.maxDim(), seed)
}

// AnchorsAt is Anchors with an explicit anchor dimension, for
// sweeps whose ladder differs from the configured one (the paper anchors
// EIS at the highest-memory pair of the sweep being ranked).
func (r *Runner) AnchorsAt(ctx context.Context, algo string, dim int, seed int64) (*embedding.Embedding, *embedding.Embedding, error) {
	e17, e18, err := r.Pair(ctx, algo, dim, seed)
	if err != nil {
		return nil, nil, err
	}
	ids := r.TopWordIDs()
	return e17.SubRows(ids), e18.SubRows(ids), nil
}

// TaskEvaluator returns the named downstream task bound to this runner's
// Wiki'17 snapshot, building (and caching) it on first use through the
// task registry.
func (r *Runner) TaskEvaluator(name string) (tasks.Evaluator, error) {
	c17, _ := r.Corpora()
	r.mu.Lock()
	defer r.mu.Unlock()
	if ev, ok := r.taskCache[name]; ok {
		return ev, nil
	}
	ev, err := tasks.New(name, c17, r.Cfg.Corpus)
	if err != nil {
		return nil, err
	}
	r.taskCache[name] = ev
	return ev, nil
}

// taskEval returns the named task's evaluator as the concrete type E an
// artifact needs (*tasks.Sentiment or *tasks.NER), for its dataset.
func taskEval[E tasks.Evaluator](r *Runner, name string) (E, error) {
	var zero E
	ev, err := r.TaskEvaluator(name)
	if err != nil {
		return zero, err
	}
	e, ok := ev.(E)
	if !ok {
		return zero, fmt.Errorf("experiments: task %q is a %T, want %T", name, ev, zero)
	}
	return e, nil
}

// Stability evaluates one downstream task on one grid cell: it fetches
// the quantized aligned pair from the store, trains the task's
// Wiki'17/Wiki'18 model pair (concurrently under the worker budget), and
// returns the prediction disagreement and the Wiki'17 model's quality.
// This is the serving-path unit: bitwise identical to the grid sweep's
// per-cell evaluation.
func (r *Runner) Stability(ctx context.Context, algo, task string, dim, prec int, seed int64) (tasks.Result, error) {
	ev, err := r.TaskEvaluator(task)
	if err != nil {
		return tasks.Result{}, err
	}
	q17, q18, err := r.QuantizedPair(ctx, algo, dim, prec, seed)
	if err != nil {
		return tasks.Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return tasks.Result{}, err
	}
	return ev.Eval(q17, q18, seed, r.trainPair), nil
}

// Measures returns the configured measure set for (algo, seed) from
// the measure registry, with the eigenspace instability anchors resolved
// and the config's worker budget threaded into every measure.
func (r *Runner) Measures(ctx context.Context, algo string, seed int64) ([]core.Measure, error) {
	e, et, err := r.Anchors(ctx, algo, seed)
	if err != nil {
		return nil, err
	}
	return core.NewMeasures(core.MeasureConfig{
		Anchors: e, AnchorsTilde: et,
		Alpha: r.Cfg.Alpha, K: r.Cfg.K, Queries: r.Cfg.KNNQueries,
		Workers: r.Cfg.Workers,
	}), nil
}
