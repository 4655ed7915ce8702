package experiments

import (
	"testing"

	"anchor/internal/core"
	"anchor/internal/corpus"
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

	g1 := r1.SentimentGrid()
	g4 := r4.SentimentGrid()
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
	cells := r.SentimentGrid()
	cell := cells[0]

	q17, q18 := r.QuantizedPair(cell.Algo, cell.Dim, cell.Prec, cell.Seed)
	ds := r.SentimentData("sst2")
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
	g1 := r.SentimentGrid()
	if _, ok := g1[0].DI["sst2"]; !ok {
		t.Fatal("first grid missing sst2")
	}
	if _, ok := g1[0].DI["subj"]; ok {
		t.Fatal("first grid unexpectedly has subj")
	}
	r.Cfg.SentimentTasks = []string{"subj"}
	g2 := r.SentimentGrid()
	if _, ok := g2[0].DI["subj"]; !ok {
		t.Fatal("cache returned the sst2 grid for the subj task set: key ignores tasks")
	}
	if _, ok := g2[0].DI["sst2"]; ok {
		t.Fatal("subj grid unexpectedly has sst2")
	}
}
