package anchor

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"anchor/internal/core"
	"anchor/internal/embedding"
	"anchor/internal/embtrain"
	"anchor/internal/experiments"
	"anchor/internal/query"
	"anchor/internal/registry"
	"anchor/internal/store"
	"anchor/internal/tasks"
)

// Service is the context-aware entry point to anchor: a long-lived,
// concurrency-safe handle over the experiment runner, the pluggable
// registries (trainers, measures, downstream tasks), and the persistent
// artifact store. It is the layer both the CLIs and the `anchor serve`
// HTTP API are built on.
//
// All methods take a context.Context and return errors (no panics on
// unknown names — those surface as *UnknownNameError). Embeddings are
// cached by provenance in the artifact store, so repeated queries never
// retrain; give the service a cache directory (WithCacheDir) and the
// cache survives restarts.
type Service struct {
	runner   *experiments.Runner
	engine   *query.Engine
	progress func(string)

	// servingBudget, when positive, switches the read path into
	// serving-memory-budget mode: queries that leave dim unset have
	// (dim, bits) chosen by the paper's selection algorithm under
	// dim*bits <= servingBudget. Chosen cells are cached per
	// (algo, seed) so selection runs once per configuration.
	servingBudget int
	selMu         sync.Mutex
	selCache      map[string]servingChoice
}

// servingChoice is a cached serving-budget auto-selection result.
type servingChoice struct {
	Dim  int
	Bits int
}

// UnknownNameError reports a request naming an unregistered algorithm,
// task, or measure. The serve layer maps it to HTTP 400.
type UnknownNameError = registry.UnknownError

// InvalidRequestError reports a request with out-of-range parameters
// (dimension, precision, empty candidate grid). The serve layer maps it
// to HTTP 400; anything else that fails is an internal error.
type InvalidRequestError struct {
	Msg string
}

// Error implements error.
func (e *InvalidRequestError) Error() string { return "anchor: " + e.Msg }

func invalidf(format string, args ...any) error {
	return &InvalidRequestError{Msg: fmt.Sprintf(format, args...)}
}

// serviceSettings accumulates functional options.
type serviceSettings struct {
	cfg           ExperimentConfig
	workers       *int
	cacheDir      string
	cacheCap      int
	queryBudget   int64
	servingBudget int
	progress      func(string)
}

// ServiceOption configures NewService.
type ServiceOption func(*serviceSettings)

// WithConfig bases the service on an experiment configuration (corpus
// scale, dimension ladder for EIS anchors, measure parameters). The
// default is BenchExperimentConfig.
func WithConfig(cfg ExperimentConfig) ServiceOption {
	return func(s *serviceSettings) { s.cfg = cfg }
}

// WithWorkers bounds the goroutines used for training, measures, and the
// grid sweep (<= 0 selects all CPUs). Results are bitwise identical for
// every value; it is a pure throughput knob.
func WithWorkers(n int) ServiceOption {
	return func(s *serviceSettings) { s.workers = &n }
}

// WithCacheDir persists the artifact store to dir: trained, aligned, and
// quantized embeddings are written there (see the internal/store package
// docs for the layout) and reloaded bitwise-identically after a restart.
func WithCacheDir(dir string) ServiceOption {
	return func(s *serviceSettings) { s.cacheDir = dir }
}

// WithCacheCapacity bounds the in-process artifact LRU to n entries
// (<= 0 = unbounded, the default). With a cache directory configured,
// evicted artifacts reload from disk instead of retraining.
func WithCacheCapacity(n int) ServiceOption {
	return func(s *serviceSettings) { s.cacheCap = n }
}

// WithQueryBudget bounds the total bytes of query-ready snapshots the
// read path keeps resident (each snapshot pins its normalized matrix,
// the raw embedding, and the word index); least recently used snapshots
// are evicted beyond it and reload from the artifact store on the next
// query. The default is 256 MiB; <= 0 removes the bound.
func WithQueryBudget(bytes int64) ServiceOption {
	return func(s *serviceSettings) { s.queryBudget = bytes }
}

// WithServingBudget switches the read path into serving-memory-budget
// mode: a query that leaves the dimension unset (dim 0) has its
// (dim, bits) cell chosen automatically by the paper's selection
// algorithm (Section 5.2) over the configured dimension and precision
// ladders, restricted to cells with dim*bits <= budgetBits and ranked
// by eigenspace instability. The chosen cell is cached per (algo, seed),
// so selection trains its grid once and every later query reuses the
// answer. budgetBits <= 0 (the default) disables the mode; queries must
// then pass an explicit dimension.
func WithServingBudget(budgetBits int) ServiceOption {
	return func(s *serviceSettings) { s.servingBudget = budgetBits }
}

// WithProgress installs a progress callback invoked with a short human
// note at each expensive stage (training, measuring, downstream model
// fits). The callback must be safe for concurrent use.
func WithProgress(fn func(stage string)) ServiceOption {
	return func(s *serviceSettings) { s.progress = fn }
}

// NewService builds a Service from functional options.
func NewService(opts ...ServiceOption) (*Service, error) {
	settings := &serviceSettings{
		cfg:         BenchExperimentConfig(),
		queryBudget: 256 << 20,
	}
	for _, opt := range opts {
		opt(settings)
	}
	if settings.workers != nil {
		settings.cfg.Workers = *settings.workers
	}
	st, err := store.Open(settings.cacheDir, settings.cacheCap)
	if err != nil {
		return nil, err
	}
	runner := experiments.NewRunnerWithStore(settings.cfg, st)
	// The query engine draws snapshots straight from the runner's artifact
	// store: a warm store answers read-path queries without retraining.
	// ref.Bits 0 means full precision; quantized refs resolve through the
	// runner's quantized-snapshot path (clip learned on Wiki'17, matching
	// the experiment grid), so a served artifact is bitwise the artifact
	// the library path would measure.
	engine := query.New(
		func(ctx context.Context, ref query.Ref) (*embedding.Embedding, error) {
			bits := ref.Bits
			if bits == 0 {
				bits = 32
			}
			return runner.QuantizedSnapshot(ctx, ref.Algo, ref.Year, ref.Dim, bits, ref.Seed)
		},
		query.WithBudget(settings.queryBudget),
		query.WithWorkers(settings.cfg.Workers),
	)
	return &Service{
		runner:        runner,
		engine:        engine,
		progress:      settings.progress,
		servingBudget: settings.servingBudget,
		selCache:      map[string]servingChoice{},
	}, nil
}

// ServingBudget reports the serving-memory budget in bits per word
// (dim*bits), zero when auto-selection is disabled.
func (s *Service) ServingBudget() int { return s.servingBudget }

// selectServing resolves the (dim, bits) cell a budget-mode query should
// serve, running the paper's selection algorithm on first use for each
// (algo, seed) and caching the choice.
func (s *Service) selectServing(ctx context.Context, algo string, seed int64) (servingChoice, error) {
	key := fmt.Sprintf("%s/%d", algo, seed)
	s.selMu.Lock()
	choice, ok := s.selCache[key]
	s.selMu.Unlock()
	if ok {
		return choice, nil
	}
	cfg := s.runner.Cfg
	rep, err := s.Select(ctx, SelectRequest{
		Algo: algo, Dims: cfg.Dims, Precisions: cfg.Precisions,
		Seed: seed, BudgetBits: s.servingBudget,
	})
	if err != nil {
		return servingChoice{}, err
	}
	if rep.Best == nil {
		return servingChoice{}, invalidf(
			"serving budget %d bits excludes every configured cell", s.servingBudget)
	}
	choice = servingChoice{Dim: rep.Best.Dim, Bits: rep.Best.Precision}
	s.note("serving budget %d: selected d=%d b=%d for %s seed=%d",
		s.servingBudget, choice.Dim, choice.Bits, algo, seed)
	s.selMu.Lock()
	s.selCache[key] = choice
	s.selMu.Unlock()
	return choice, nil
}

// Config returns the experiment configuration the service runs at.
func (s *Service) Config() ExperimentConfig { return s.runner.Cfg }

// StoreStats reports artifact-store traffic (hits, disk hits, computes).
func (s *Service) StoreStats() store.Stats { return s.runner.Store().Stats() }

// Algorithms lists the registered embedding trainers.
func (s *Service) Algorithms() []string { return embtrain.Names() }

// Tasks lists the registered downstream tasks.
func (s *Service) Tasks() []string { return tasks.Names() }

// Measures lists the registered distance measures in reporting order.
func (s *Service) Measures() []string { return core.MeasureNames() }

func (s *Service) note(format string, args ...any) {
	if s.progress != nil {
		s.progress(fmt.Sprintf(format, args...))
	}
}

// A request's zero year selects the Wiki'17 snapshot, its zero seed
// training seed 1, and its zero bits full precision.
const (
	defaultYear = 2017
	defaultSeed = 1
	defaultBits = 32
)

func yearOrDefault(year int) int {
	if year == 0 {
		return defaultYear
	}
	return year
}

func seedOrDefault(seed int64) int64 {
	if seed == 0 {
		return defaultSeed
	}
	return seed
}

func bitsOrDefault(bits int) int {
	if bits == 0 {
		return defaultBits
	}
	return bits
}

func validYear(year int) error {
	if year != 2017 && year != 2018 {
		return invalidf("year must be 2017 or 2018, got %d", year)
	}
	return nil
}

func validBits(bits int) error {
	if bits < 1 || bits > 32 {
		return invalidf("precision must be 1..32 bits, got %d", bits)
	}
	return nil
}

func validDim(dim int) error {
	if dim < 1 {
		return invalidf("dimension must be positive, got %d", dim)
	}
	return nil
}

// The registries own the unknown-name error shape; these aliases keep
// request validation ahead of expensive work (training, dataset
// generation) without reimplementing the lookup.
func (s *Service) checkAlgo(algo string) error       { return embtrain.CheckName(algo) }
func (s *Service) checkTask(task string) error       { return tasks.CheckName(task) }
func (s *Service) checkMeasure(measure string) error { return core.CheckMeasure(measure) }

// Train returns the embedding for (algo, year, dim, seed), served from
// the artifact store or trained on a miss. year selects the corpus
// snapshot (2017 or 2018; 0 selects 2017, as for reads); seed 0 selects
// seed 1. The result must be treated as read-only: it is shared with the
// cache.
func (s *Service) Train(ctx context.Context, algo string, year, dim int, seed int64) (*Embedding, error) {
	if err := errors.Join(ctx.Err(), s.checkAlgo(algo), validDim(dim)); err != nil {
		return nil, err
	}
	year = yearOrDefault(year)
	if err := validYear(year); err != nil {
		return nil, err
	}
	seed = seedOrDefault(seed)
	s.note("train %s wiki%d d=%d seed=%d", algo, year%100, dim, seed)
	return s.runner.Train(ctx, algo, year, dim, seed)
}

// Pair returns the aligned full-precision pair for (algo, dim, seed): the
// Wiki'17 embedding and the Wiki'18 embedding rotated onto it with
// orthogonal Procrustes (Section 3's protocol). Served from the artifact
// store when warm. Treat both as read-only.
func (s *Service) Pair(ctx context.Context, algo string, dim int, seed int64) (*Embedding, *Embedding, error) {
	if err := errors.Join(ctx.Err(), s.checkAlgo(algo), validDim(dim)); err != nil {
		return nil, nil, err
	}
	seed = seedOrDefault(seed)
	s.note("pair %s d=%d seed=%d", algo, dim, seed)
	return s.runner.Pair(ctx, algo, dim, seed)
}

// MeasureReport is one embedding-distance evaluation of a grid cell.
type MeasureReport struct {
	Algo      string `json:"algo"`
	Dim       int    `json:"dim"`
	Precision int    `json:"bits"`
	Seed      int64  `json:"seed"`
	// MemoryBits is the paper's memory axis: dim x precision.
	MemoryBits int `json:"memory_bits"`
	// Values maps measure name to its distance value, over every
	// registered measure.
	Values map[string]float64 `json:"measures"`
}

// MeasureCell computes every registered distance measure between the
// quantized aligned pair at (algo, dim, bits, seed), over the configured
// top words, with EIS anchored at the configuration's largest dimension —
// exactly the grid sweep's per-cell measure evaluation, so values are
// bitwise identical to the library/grid path for any worker count.
// bits 0 selects full precision and seed 0 seed 1.
func (s *Service) MeasureCell(ctx context.Context, algo string, dim, bits int, seed int64) (MeasureReport, error) {
	if err := errors.Join(ctx.Err(), s.checkAlgo(algo), validDim(dim)); err != nil {
		return MeasureReport{}, err
	}
	bits, seed = bitsOrDefault(bits), seedOrDefault(seed)
	if err := validBits(bits); err != nil {
		return MeasureReport{}, err
	}
	s.note("measures %s d=%d b=%d seed=%d", algo, dim, bits, seed)
	q17, q18, err := s.runner.QuantizedPair(ctx, algo, dim, bits, seed)
	if err != nil {
		return MeasureReport{}, err
	}
	ms, err := s.runner.Measures(ctx, algo, seed)
	if err != nil {
		return MeasureReport{}, err
	}
	if err := ctx.Err(); err != nil {
		return MeasureReport{}, err
	}
	ids := s.runner.TopWordIDs()
	s17, s18 := q17.SubRows(ids), q18.SubRows(ids)
	rep := MeasureReport{
		Algo: algo, Dim: dim, Precision: bits, Seed: seed,
		MemoryBits: dim * bits,
		Values:     make(map[string]float64, len(ms)),
	}
	for _, m := range ms {
		if err := ctx.Err(); err != nil {
			return MeasureReport{}, err
		}
		rep.Values[m.Name()] = m.Distance(s17, s18)
	}
	return rep, nil
}

// StabilityReport is one end-to-end downstream instability evaluation.
type StabilityReport struct {
	Algo      string `json:"algo"`
	Task      string `json:"task"`
	Dim       int    `json:"dim"`
	Precision int    `json:"bits"`
	Seed      int64  `json:"seed"`
	// MemoryBits is the paper's memory axis: dim x precision.
	MemoryBits int `json:"memory_bits"`
	// Disagreement is the downstream prediction disagreement between the
	// Wiki'17 and Wiki'18 models, in percent (Definition 1).
	Disagreement float64 `json:"disagreement_pct"`
	// Accuracy is the Wiki'17 model's test quality.
	Accuracy float64 `json:"accuracy"`
}

// Stability measures true downstream instability for one configuration:
// it fetches the quantized aligned pair, trains the named task's model
// pair, and reports prediction disagreement (Definition 1) and quality.
// bits 0 selects full precision and seed 0 seed 1.
func (s *Service) Stability(ctx context.Context, algo, task string, dim, bits int, seed int64) (StabilityReport, error) {
	if err := errors.Join(ctx.Err(), s.checkAlgo(algo), s.checkTask(task), validDim(dim)); err != nil {
		return StabilityReport{}, err
	}
	bits, seed = bitsOrDefault(bits), seedOrDefault(seed)
	if err := validBits(bits); err != nil {
		return StabilityReport{}, err
	}
	s.note("stability %s/%s d=%d b=%d seed=%d", algo, task, dim, bits, seed)
	res, err := s.runner.Stability(ctx, algo, task, dim, bits, seed)
	if err != nil {
		return StabilityReport{}, err
	}
	return StabilityReport{
		Algo: algo, Task: task, Dim: dim, Precision: bits, Seed: seed,
		MemoryBits:   dim * bits,
		Disagreement: res.Disagreement,
		Accuracy:     res.Accuracy,
	}, nil
}

// SelectRequest parameterizes Select: the candidate grid and the measure
// used to rank it.
type SelectRequest struct {
	Algo string `json:"algo"`
	// Dims and Precisions span the candidate grid.
	Dims       []int `json:"dims"`
	Precisions []int `json:"precisions"`
	// Seed 0 selects seed 1.
	Seed int64 `json:"seed"`
	// Measure ranks candidates (default eigenspace-instability, the
	// paper's proposed criterion).
	Measure string `json:"measure"`
	// BudgetBits, when positive, restricts the selection to candidates
	// with dim x bits <= BudgetBits (Section 5.2's budget setting).
	BudgetBits int `json:"budget_bits"`
}

// SelectCandidate is one ranked dimension-precision configuration.
type SelectCandidate struct {
	Dim        int     `json:"dim"`
	Precision  int     `json:"bits"`
	MemoryBits int     `json:"memory_bits"`
	Value      float64 `json:"value"`
	// WithinBudget marks candidates satisfying the memory budget.
	WithinBudget bool `json:"within_budget"`
}

// SelectReport ranks the candidate grid by the measure.
type SelectReport struct {
	Algo       string `json:"algo"`
	Measure    string `json:"measure"`
	Seed       int64  `json:"seed"`
	BudgetBits int    `json:"budget_bits"`
	// Candidates are sorted by ascending measure value (most stable
	// first); ties break toward smaller memory.
	Candidates []SelectCandidate `json:"candidates"`
	// Best is the minimum-value candidate within budget; nil when the
	// budget excludes every candidate.
	Best *SelectCandidate `json:"best,omitempty"`
}

// Select is the paper's payoff as a query: rank a dimension-precision
// grid by a cheap embedding-distance measure — no downstream models
// trained — and pick the predicted-most-stable configuration under a
// memory budget (Section 5.2). seed 0 and measure "" select defaults.
func (s *Service) Select(ctx context.Context, req SelectRequest) (SelectReport, error) {
	if req.Measure == "" {
		req.Measure = "eigenspace-instability"
	}
	if err := errors.Join(ctx.Err(), s.checkAlgo(req.Algo), s.checkMeasure(req.Measure)); err != nil {
		return SelectReport{}, err
	}
	if len(req.Dims) == 0 || len(req.Precisions) == 0 {
		return SelectReport{}, invalidf("select needs at least one dim and one precision")
	}
	for _, d := range req.Dims {
		if err := validDim(d); err != nil {
			return SelectReport{}, err
		}
	}
	for _, b := range req.Precisions {
		if err := validBits(b); err != nil {
			return SelectReport{}, err
		}
	}
	seed := seedOrDefault(req.Seed)
	s.note("select %s by %s over %d cells", req.Algo, req.Measure, len(req.Dims)*len(req.Precisions))

	// The paper anchors EIS at the highest-memory pair of the sweep
	// being ranked — the request's largest dimension, not the service
	// config's ladder (which the request may exceed or not reach).
	anchorDim := req.Dims[0]
	for _, d := range req.Dims {
		if d > anchorDim {
			anchorDim = d
		}
	}
	e, et, err := s.runner.AnchorsAt(ctx, req.Algo, anchorDim, seed)
	if err != nil {
		return SelectReport{}, err
	}
	cfg := s.runner.Cfg
	m, err := core.NewMeasure(req.Measure, core.MeasureConfig{
		Anchors: e, AnchorsTilde: et,
		Alpha: cfg.Alpha, K: cfg.K, Queries: cfg.KNNQueries,
		Workers: cfg.Workers,
	})
	if err != nil {
		return SelectReport{}, err
	}

	ids := s.runner.TopWordIDs()
	rep := SelectReport{Algo: req.Algo, Measure: req.Measure, Seed: seed, BudgetBits: req.BudgetBits}
	for _, dim := range req.Dims {
		for _, bits := range req.Precisions {
			if err := ctx.Err(); err != nil {
				return SelectReport{}, err
			}
			q17, q18, err := s.runner.QuantizedPair(ctx, req.Algo, dim, bits, seed)
			if err != nil {
				return SelectReport{}, err
			}
			cand := SelectCandidate{
				Dim: dim, Precision: bits, MemoryBits: dim * bits,
				Value:        m.Distance(q17.SubRows(ids), q18.SubRows(ids)),
				WithinBudget: req.BudgetBits <= 0 || dim*bits <= req.BudgetBits,
			}
			rep.Candidates = append(rep.Candidates, cand)
		}
	}
	sort.SliceStable(rep.Candidates, func(i, j int) bool {
		a, b := rep.Candidates[i], rep.Candidates[j]
		if a.Value != b.Value {
			return a.Value < b.Value
		}
		return a.MemoryBits < b.MemoryBits
	})
	for i := range rep.Candidates {
		if rep.Candidates[i].WithinBudget {
			c := rep.Candidates[i]
			rep.Best = &c
			break
		}
	}
	return rep, nil
}

// Experiment reproduces a registered paper artifact by id against the
// service's shared runner (so embeddings are reused across experiments)
// and renders its tables to w. A canceled ctx stops the run before its
// next training, grid cell, or task, and nothing is rendered.
func (s *Service) Experiment(ctx context.Context, id string, w io.Writer) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.note("experiment %s", id)
	tables, err := experiments.Run(ctx, s.runner, id)
	if err != nil {
		return err
	}
	for _, t := range tables {
		t.Render(w)
	}
	return nil
}

// Experiments reproduces the given artifact ids (all registered ones when
// empty) against the shared runner.
func (s *Service) Experiments(ctx context.Context, ids []string, w io.Writer) error {
	if len(ids) == 0 {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := s.Experiment(ctx, id, w); err != nil {
			return err
		}
	}
	return nil
}
