package experiments

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"anchor/internal/core"
	"anchor/internal/corpus"
	"anchor/internal/embedding"
	"anchor/internal/tasks"
	"anchor/internal/tasks/sentiment"
)

// tinyGridConfig is a minimal grid for golden tests: one algorithm, two
// dims, two precisions, one seed, one sentiment task.
func tinyGridConfig() Config {
	cfg := SmallConfig()
	cfg.Corpus = corpus.TestConfig()
	cfg.Algorithms = []string{"mc"}
	cfg.Dims = []int{8, 16}
	cfg.Precisions = []int{1, 32}
	cfg.Seeds = []int64{1}
	cfg.SentimentTasks = []string{"sst2"}
	cfg.NEREnabled = false
	return cfg
}

// TestSentimentGridGoldenAcrossWorkers is the grid-level determinism
// contract: every DI, Acc, and measure value must be bitwise identical
// for Workers 1 and 4 (covering the parallel cell sweep, the concurrent
// Wiki'17/Wiki'18 pair training, and the blocked kernels).
func TestSentimentGridGoldenAcrossWorkers(t *testing.T) {
	r1 := NewRunner(tinyGridConfig())
	cfg4 := tinyGridConfig()
	cfg4.Workers = 4
	r4 := NewRunner(cfg4)
	r1.Cfg.Workers = 1

	g1, err := r1.SentimentGrid(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	g4, err := r4.SentimentGrid(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(g1) != len(g4) {
		t.Fatalf("grid sizes differ: %d vs %d", len(g1), len(g4))
	}
	for i := range g1 {
		a, b := g1[i], g4[i]
		if a.Algo != b.Algo || a.Dim != b.Dim || a.Prec != b.Prec || a.Seed != b.Seed {
			t.Fatalf("cell %d identity mismatch", i)
		}
		for name, v := range a.DI {
			if b.DI[name] != v {
				t.Fatalf("cell %d DI[%s]: workers=1 %v != workers=4 %v", i, name, v, b.DI[name])
			}
		}
		for name, v := range a.Acc {
			if b.Acc[name] != v {
				t.Fatalf("cell %d Acc[%s]: workers=1 %v != workers=4 %v", i, name, v, b.Acc[name])
			}
		}
		for name, v := range a.Measures {
			if b.Measures[name] != v {
				t.Fatalf("cell %d measure %s: workers=1 %v != workers=4 %v", i, name, v, b.Measures[name])
			}
		}
	}
}

// TestGridCellMatchesReferenceTrainer recomputes one grid cell's DI and
// Acc through the library pipeline, TrainLinearBOW then Predict on freshly
// built test features, and requires bitwise equality with the grid
// values, which come from the cached count matrices and the parallel cell
// sweep. The link from that pipeline to the per-example reference
// trainer, which lives in the sentiment package's tests where this
// package cannot import it, is TestLinearBOWBitwiseMatchesReference.
func TestGridCellMatchesReferenceTrainer(t *testing.T) {
	r := NewRunner(tinyGridConfig())
	r.Cfg.Workers = 1
	ctx := context.Background()
	cells, err := r.SentimentGrid(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cell := cells[0]

	q17, q18, err := r.QuantizedPair(ctx, cell.Algo, cell.Dim, cell.Prec, cell.Seed)
	if err != nil {
		t.Fatal(err)
	}
	st, err := taskEval[*tasks.Sentiment](r, "sst2")
	if err != nil {
		t.Fatal(err)
	}
	ds := st.Data
	cfg := sentiment.DefaultLinearBOWConfig(cell.Seed)
	m17 := sentiment.TrainLinearBOW(q17, ds, cfg)
	m18 := sentiment.TrainLinearBOW(q18, ds, cfg)
	p17, p18 := m17.Predict(ds.Test), m18.Predict(ds.Test)
	di := core.PredictionDisagreementPct(p17, p18)
	acc := sentiment.AccuracyOf(p17, ds.Test)
	if di != cell.DI["sst2"] {
		t.Fatalf("reference DI %v != grid DI %v", di, cell.DI["sst2"])
	}
	if acc != cell.Acc["sst2"] {
		t.Fatalf("reference Acc %v != grid Acc %v", acc, cell.Acc["sst2"])
	}
}

// TestGridCacheKeyIncludesTaskSet is the regression test for the cache-key
// bug: two grids over the same dims/precs/seeds but different task sets
// must not collide.
func TestGridCacheKeyIncludesTaskSet(t *testing.T) {
	r := NewRunner(tinyGridConfig())
	r.Cfg.Workers = 1
	g1, err := r.SentimentGrid(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g1[0].DI["sst2"]; !ok {
		t.Fatal("first grid missing sst2")
	}
	if _, ok := g1[0].DI["subj"]; ok {
		t.Fatal("first grid unexpectedly has subj")
	}
	r.Cfg.SentimentTasks = []string{"subj"}
	g2, err := r.SentimentGrid(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g2[0].DI["subj"]; !ok {
		t.Fatal("cache returned the sst2 grid for the subj task set: key ignores tasks")
	}
	if _, ok := g2[0].DI["sst2"]; ok {
		t.Fatal("subj grid unexpectedly has sst2")
	}
}

// cancelSweep, when set, is called by the first Eval of the
// "sst2-canceling" task: it cancels a grid sweep from inside its first
// cell.
var cancelSweep atomic.Pointer[context.CancelFunc]

type cancelingEval struct{ tasks.Evaluator }

func (e cancelingEval) Eval(e17, e18 *embedding.Embedding, seed int64, train func(f17, f18 func())) tasks.Result {
	if cancel := cancelSweep.Swap(nil); cancel != nil {
		(*cancel)()
	}
	return e.Evaluator.Eval(e17, e18, seed, train)
}

func init() {
	tasks.Register("sst2-canceling", func(c17 *corpus.Corpus, ccfg corpus.Config) (tasks.Evaluator, error) {
		ev, err := tasks.New("sst2", c17, ccfg)
		return cancelingEval{ev}, err
	})
}

// A sweep canceled inside its first cell returns context.Canceled and
// caches nothing: the next call evaluates every cell in full.
func TestGridCanceledMidSweepCachesNothing(t *testing.T) {
	cfg := tinyGridConfig()
	cfg.SentimentTasks = []string{"sst2-canceling", "sst2"}
	r := NewRunner(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelSweep.Store(&cancel)
	if cells, err := r.SentimentGrid(ctx); !errors.Is(err, context.Canceled) || cells != nil {
		t.Fatalf("canceled sweep: %d cells, err %v; want none and context.Canceled", len(cells), err)
	}
	cells, err := r.SentimentGrid(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		if len(c.DI) != 2 || len(c.Measures) == 0 {
			t.Fatalf("cell %d after a canceled sweep: DI %v, %d measures", i, c.DI, len(c.Measures))
		}
	}
}
