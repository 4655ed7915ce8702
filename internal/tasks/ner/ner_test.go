package ner

import (
	"testing"

	"anchor/internal/core"
	"anchor/internal/corpus"
	"anchor/internal/embtrain"
)

// Predict returns the predicted tag sequence for one sentence: the
// lockstep emission path with a one-sentence batch.
func (m *Tagger) Predict(tokens []int32) []int {
	return m.predictAll([]Example{{Tokens: tokens}})[0]
}

func testSetup(t *testing.T) (corpus.Config, *corpus.Corpus, *Dataset) {
	t.Helper()
	cfg := corpus.TestConfig()
	c := corpus.Generate(cfg, corpus.Wiki17)
	p := CoNLLParams()
	p.TrainN, p.ValN, p.TestN = 120, 30, 60
	return cfg, c, Generate(c, cfg, p)
}

func TestGenerateWellFormed(t *testing.T) {
	_, _, ds := testSetup(t)
	entityTokens := 0
	total := 0
	for _, ex := range ds.Train {
		if len(ex.Tokens) != len(ex.Tags) {
			t.Fatal("tokens/tags length mismatch")
		}
		for _, tag := range ex.Tags {
			if tag < 0 || tag >= NumTags {
				t.Fatalf("invalid tag %d", tag)
			}
			if tag != TagO {
				entityTokens++
			}
			total++
		}
	}
	frac := float64(entityTokens) / float64(total)
	if frac < 0.05 || frac > 0.6 {
		t.Fatalf("entity token fraction %.3f implausible", frac)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := corpus.TestConfig()
	c := corpus.Generate(cfg, corpus.Wiki17)
	a := Generate(c, cfg, CoNLLParams())
	b := Generate(c, cfg, CoNLLParams())
	for i := range a.Train {
		for j := range a.Train[i].Tokens {
			if a.Train[i].Tokens[j] != b.Train[i].Tokens[j] || a.Train[i].Tags[j] != b.Train[i].Tags[j] {
				t.Fatal("generation not deterministic")
			}
		}
	}
}

func TestBiLSTMLearnsEntities(t *testing.T) {
	cfg, c, ds := testSetup(t)
	_ = cfg
	emb := embtrain.NewMC().Train(c, 16, 1)
	m := Train(emb, ds, DefaultConfig(1))
	_, f1 := m.EvaluateEntities(ds.Test)
	if f1 < 0.35 {
		t.Fatalf("BiLSTM entity F1 %.3f too low", f1)
	}
	t.Logf("BiLSTM entity token F1: %.3f", f1)
}

func TestEntityPredictionsOnlyGoldEntities(t *testing.T) {
	_, c, ds := testSetup(t)
	emb := embtrain.NewMC().Train(c, 8, 1)
	cfg := DefaultConfig(1)
	cfg.Epochs = 2
	m := Train(emb, ds, cfg)
	preds := m.EntityPredictions(ds.Test)
	want := 0
	for _, ex := range ds.Test {
		for _, tag := range ex.Tags {
			if tag != TagO {
				want++
			}
		}
	}
	if len(preds) != want {
		t.Fatalf("entity predictions %d != gold entity tokens %d", len(preds), want)
	}
}

func TestTrainDeterministic(t *testing.T) {
	_, c, ds := testSetup(t)
	emb := embtrain.NewMC().Train(c, 8, 1)
	cfg := DefaultConfig(2)
	cfg.Epochs = 2
	a := Train(emb, ds, cfg)
	b := Train(emb, ds, cfg)
	if core.PredictionDisagreement(a.EntityPredictions(ds.Test), b.EntityPredictions(ds.Test)) != 0 {
		t.Fatal("same-seed training should be deterministic")
	}
}

func TestCRFVariantTrains(t *testing.T) {
	_, c, ds := testSetup(t)
	emb := embtrain.NewMC().Train(c, 16, 1)
	cfg := DefaultConfig(1)
	cfg.UseCRF = true
	cfg.Epochs = 4
	m := Train(emb, ds, cfg)
	_, f1 := m.EvaluateEntities(ds.Test)
	if f1 < 0.3 {
		t.Fatalf("BiLSTM-CRF entity F1 %.3f too low", f1)
	}
	t.Logf("BiLSTM-CRF entity token F1: %.3f", f1)
}

func TestNERInstabilityPipeline(t *testing.T) {
	cfg := corpus.TestConfig()
	c17 := corpus.Generate(cfg, corpus.Wiki17)
	c18 := corpus.Generate(cfg, corpus.Wiki18)
	tr := embtrain.NewMC()
	e17 := tr.Train(c17, 16, 1)
	e18 := tr.Train(c18, 16, 1)
	e18.AlignTo(e17, 0)
	p := CoNLLParams()
	p.TrainN, p.ValN, p.TestN = 100, 25, 60
	ds := Generate(c17, cfg, p)
	mcfg := DefaultConfig(1)
	mcfg.Epochs = 5
	m17 := Train(e17, ds, mcfg)
	m18 := Train(e18, ds, mcfg)
	di := core.PredictionDisagreementPct(m17.EntityPredictions(ds.Test), m18.EntityPredictions(ds.Test))
	if di >= 80 {
		t.Fatalf("NER instability %.1f%% implausibly high", di)
	}
	t.Logf("NER downstream instability: %.2f%%", di)
}

// TestTrainBitwiseMatchesReference is the trainer-level determinism
// contract: Train (arena tape, fused ops) must produce bitwise-identical
// weights, predictions, and quality to TrainReference (reference_test.go,
// unfused ops) over the same lockstep batch schedule — for the plain
// BiLSTM and the CRF variant.
func TestTrainBitwiseMatchesReference(t *testing.T) {
	_, c, ds := testSetup(t)
	emb := embtrain.NewMC().Train(c, 16, 1)
	for _, useCRF := range []bool{false, true} {
		cfg := DefaultConfig(3)
		cfg.Epochs = 3
		cfg.UseCRF = useCRF
		fast := Train(emb, ds, cfg)
		ref := TrainReference(emb, ds, cfg)
		for pi, pp := range fast.bi.Params() {
			rp := ref.bi.Params()[pi]
			for i, v := range pp.Value.Data {
				if rp.Value.Data[i] != v {
					t.Fatalf("crf=%v: param %s[%d]: fast %v != reference %v", useCRF, pp.Name, i, v, rp.Value.Data[i])
				}
			}
		}
		if core.PredictionDisagreement(fast.EntityPredictions(ds.Test), ref.EntityPredictions(ds.Test)) != 0 {
			t.Fatalf("crf=%v: fast and reference trainers disagree on predictions", useCRF)
		}
		_, fastF1 := fast.EvaluateEntities(ds.Test)
		_, refF1 := ref.EvaluateEntities(ds.Test)
		if fastF1 != refF1 {
			t.Fatalf("crf=%v: fast and reference F1 differ", useCRF)
		}
	}
}

// TestPredictBatchingInvariant checks that lockstep batched prediction is
// bitwise identical to per-sentence Predict calls.
func TestPredictBatchingInvariant(t *testing.T) {
	_, c, ds := testSetup(t)
	emb := embtrain.NewMC().Train(c, 8, 1)
	cfg := DefaultConfig(1)
	cfg.Epochs = 2
	m := Train(emb, ds, cfg)
	batched := m.predictAll(ds.Test)
	for i, ex := range ds.Test {
		single := m.Predict(ex.Tokens)
		for j := range single {
			if batched[i][j] != single[j] {
				t.Fatalf("example %d token %d: batched %d != single %d", i, j, batched[i][j], single[j])
			}
		}
	}
}

func TestPredictEmptySentence(t *testing.T) {
	_, c, ds := testSetup(t)
	emb := embtrain.NewMC().Train(c, 8, 1)
	cfg := DefaultConfig(1)
	cfg.Epochs = 1
	m := Train(emb, ds, cfg)
	if got := m.Predict(nil); got != nil {
		t.Fatalf("Predict(nil) = %v, want nil", got)
	}
}
