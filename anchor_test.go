package anchor_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"anchor"
)

// trainPair trains mc at d8, seed 1, on both snapshots of a 300-word
// corpus through a Service, and returns unaligned copies the caller may
// mutate (the service's own artifacts are shared with its cache).
func trainPair(t *testing.T) (e17, e18 *anchor.Embedding) {
	t.Helper()
	cfg := anchor.SmallExperimentConfig()
	cfg.Corpus = anchor.DefaultCorpusConfig()
	cfg.Corpus.VocabSize = 300
	cfg.Corpus.NumDocs = 120
	svc, err := anchor.NewService(anchor.WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	a, err := svc.Train(ctx, "mc", 2017, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := svc.Train(ctx, "mc", 2018, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	return a.Clone(), b.Clone()
}

func TestFacadeEndToEnd(t *testing.T) {
	e17, e18 := trainPair(t)
	e18.AlignTo(e17, 0)
	e18.Meta.Corpus = "wiki18a"
	q17, q18 := anchor.QuantizePair(e17, e18, 4)
	if q17.Meta.Precision != 4 || q18.Meta.Precision != 4 {
		t.Fatal("quantized precision not recorded")
	}

	eis := anchor.NewEigenspaceInstability(e17, e18)
	if d := eis.Distance(q17, q18); d <= 0 || d > 1 {
		t.Fatalf("EIS distance out of range: %v", d)
	}
	if got := len(anchor.AllMeasures(e17, e18)); got != 5 {
		t.Fatalf("expected 5 measures, got %d", got)
	}
}

func TestFacadeUnknownAlgorithm(t *testing.T) {
	var unknown *anchor.UnknownNameError
	if _, err := newTinyService(t).Train(context.Background(), "elmo", 2017, 8, 1); !errors.As(err, &unknown) {
		t.Fatalf("err = %v, want *UnknownNameError", err)
	}
}

func TestFacadeDisagreement(t *testing.T) {
	if anchor.PredictionDisagreement([]int{1, 2, 3}, []int{1, 0, 3}) != 1.0/3 {
		t.Fatal("disagreement wrong")
	}
	if anchor.PredictionDisagreementPct([]string{"a"}, []string{"b"}) != 100 {
		t.Fatal("pct wrong")
	}
}

func TestFacadeSelectionHelpers(t *testing.T) {
	cands := []anchor.Candidate{
		{Dim: 8, Precision: 32, Measures: map[string]float64{"m": 2}, TrueDI: 4},
		{Dim: 32, Precision: 8, Measures: map[string]float64{"m": 1}, TrueDI: 2},
		{Dim: 64, Precision: 4, Measures: map[string]float64{"m": 3}, TrueDI: 6},
	}
	if e := anchor.PairwiseSelectionError(cands, "m"); e != 0 {
		t.Fatalf("selection error = %v", e)
	}
	mean, worst := anchor.SelectUnderBudget(cands, "m")
	if mean != 0 || worst != 0 {
		t.Fatalf("budget selection = %v/%v (measure picks the oracle here)", mean, worst)
	}
}

func TestFacadeTrendFit(t *testing.T) {
	pts := []anchor.LinearLogPoint{
		{Task: "t", X: 64, Y: 10}, {Task: "t", X: 128, Y: 8.7},
		{Task: "t", X: 256, Y: 7.4}, {Task: "t", X: 512, Y: 6.1},
	}
	fit := anchor.FitStabilityMemoryTrend(pts)
	if fit.Slope < 1.2 || fit.Slope > 1.4 {
		t.Fatalf("slope = %v, want ~1.3", fit.Slope)
	}
}

func TestFacadeExperimentIDsAndRun(t *testing.T) {
	ids := anchor.ExperimentIDs()
	if len(ids) != 25 {
		t.Fatalf("expected 25 experiment ids, got %d", len(ids))
	}
	svc, err := anchor.NewService(anchor.WithConfig(anchor.SmallExperimentConfig()))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := svc.Experiment(context.Background(), "prop1", &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Proposition 1") {
		t.Fatalf("unexpected output: %s", buf.String())
	}
}

func TestFacadeRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := newTinyService(t).Experiment(context.Background(), "fig99", &buf); err == nil {
		t.Fatal("expected error")
	}
	if buf.Len() != 0 {
		t.Fatalf("unknown experiment rendered %q", buf.String())
	}
}
