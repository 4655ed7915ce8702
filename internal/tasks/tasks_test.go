package tasks

import (
	"errors"
	"testing"

	"anchor/internal/corpus"
	"anchor/internal/embtrain"
	"anchor/internal/registry"
	"anchor/internal/tasks/sentiment"
)

func TestNamesIncludeBuiltins(t *testing.T) {
	want := []string{"sst2", "mr", "subj", "mpqa", "conll2003"}
	got := Names()
	for _, name := range want {
		found := false
		for _, g := range got {
			if g == name {
				found = true
			}
		}
		if !found {
			t.Fatalf("builtin task %q not registered (have %v)", name, got)
		}
	}
}

func TestNewUnknownTask(t *testing.T) {
	ccfg := corpus.TestConfig()
	c17 := corpus.Generate(ccfg, corpus.Wiki17)
	_, err := New("imdb", c17, ccfg)
	var unk *registry.UnknownError
	if !errors.As(err, &unk) {
		t.Fatalf("want *registry.UnknownError, got %v", err)
	}
	if unk.Kind != "task" || unk.Name != "imdb" {
		t.Fatalf("unexpected error contents: %+v", unk)
	}
}

func TestParamsByName(t *testing.T) {
	p, err := sentiment.ParamsByName("mr")
	if err != nil || p.Name != "mr" {
		t.Fatalf("ParamsByName(mr) = %+v, %v", p, err)
	}
	if _, err := sentiment.ParamsByName("imdb"); err == nil {
		t.Fatal("expected error for unknown sentiment task")
	}
}

// TestSentimentEvaluatorMatchesInline pins the evaluator to the inlined
// train-and-score sequence it replaced: identical predictions, identical
// disagreement and accuracy, for both serial and pair-concurrent training.
func TestSentimentEvaluatorMatchesInline(t *testing.T) {
	ccfg := corpus.TestConfig()
	c17 := corpus.Generate(ccfg, corpus.Wiki17)
	c18 := corpus.Generate(ccfg, corpus.Wiki18)
	tr, err := embtrain.Lookup("mc", 0)
	if err != nil {
		t.Fatal(err)
	}
	e17 := tr.Train(c17, 8, 1)
	e18 := tr.Train(c18, 8, 1)
	e18.AlignTo(e17, 0)
	e18.Meta.Corpus = "wiki18a"

	ev, err := New("sst2", c17, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	serial := func(f17, f18 func()) { f17(); f18() }
	res := ev.Eval(e17, e18, 1, serial)

	ds := ev.(*Sentiment).Data
	cfg := sentiment.DefaultLinearBOWConfig(1)
	m17 := sentiment.TrainLinearBOW(e17, ds, cfg)
	m18 := sentiment.TrainLinearBOW(e18, ds, cfg)
	p17, p18 := m17.Predict(ds.Test), m18.Predict(ds.Test)
	var diff int
	for i := range p17 {
		if p17[i] != p18[i] {
			diff++
		}
	}
	wantDI := 100 * float64(diff) / float64(len(p17))
	if res.Disagreement != wantDI {
		t.Fatalf("evaluator DI %v != inline DI %v", res.Disagreement, wantDI)
	}
	if res.Accuracy != sentiment.AccuracyOf(p17, ds.Test) {
		t.Fatalf("evaluator Acc %v != inline Acc", res.Accuracy)
	}
}
