package sentiment

import (
	"testing"

	"anchor/internal/core"
	"anchor/internal/corpus"
	"anchor/internal/embtrain"
)

func testSetup(t *testing.T) (corpus.Config, *corpus.Corpus) {
	t.Helper()
	cfg := corpus.TestConfig()
	return cfg, corpus.Generate(cfg, corpus.Wiki17)
}

func TestGenerateShapesAndBalance(t *testing.T) {
	cfg, c := testSetup(t)
	for _, p := range AllParams() {
		ds := Generate(c, cfg, p)
		if len(ds.Train) != p.TrainN || len(ds.Val) != p.ValN || len(ds.Test) != p.TestN {
			t.Fatalf("%s: split sizes wrong", p.Name)
		}
		pos := 0
		for _, ex := range ds.Train {
			if ex.Label == 1 {
				pos++
			}
			if len(ex.Tokens) < p.LenMin || len(ex.Tokens) > p.LenMax {
				t.Fatalf("%s: example length %d out of bounds", p.Name, len(ex.Tokens))
			}
		}
		frac := float64(pos) / float64(len(ds.Train))
		if frac < 0.45 || frac > 0.55 {
			t.Fatalf("%s: unbalanced labels: %.2f positive", p.Name, frac)
		}
		if len(ds.PosLex) != p.LexiconSize || len(ds.NegLex) != p.LexiconSize {
			t.Fatalf("%s: lexicon sizes %d/%d", p.Name, len(ds.PosLex), len(ds.NegLex))
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg, c := testSetup(t)
	a := Generate(c, cfg, SST2Params())
	b := Generate(c, cfg, SST2Params())
	for i := range a.Train {
		if a.Train[i].Label != b.Train[i].Label || len(a.Train[i].Tokens) != len(b.Train[i].Tokens) {
			t.Fatal("generation not deterministic")
		}
	}
}

func TestLexiconsDisjoint(t *testing.T) {
	cfg, c := testSetup(t)
	ds := Generate(c, cfg, SST2Params())
	inPos := map[int32]bool{}
	for _, w := range ds.PosLex {
		inPos[w] = true
	}
	for _, w := range ds.NegLex {
		if inPos[w] {
			t.Fatalf("word %d in both lexicons", w)
		}
	}
}

func TestLinearBOWLearns(t *testing.T) {
	cfg, c := testSetup(t)
	emb := embtrain.NewMC().Train(c, 16, 1)
	ds := Generate(c, cfg, SST2Params())
	m := TrainLinearBOW(emb, ds, DefaultLinearBOWConfig(1))
	acc := m.Accuracy(ds.Test)
	if acc < 0.65 {
		t.Fatalf("linear BOW test accuracy %.3f too low", acc)
	}
	t.Logf("linear BOW accuracy: %.3f", acc)
}

func TestLinearBOWDeterministic(t *testing.T) {
	cfg, c := testSetup(t)
	emb := embtrain.NewMC().Train(c, 8, 1)
	ds := Generate(c, cfg, MPQAParams())
	a := TrainLinearBOW(emb, ds, DefaultLinearBOWConfig(3))
	b := TrainLinearBOW(emb, ds, DefaultLinearBOWConfig(3))
	pa, pb := a.Predict(ds.Test), b.Predict(ds.Test)
	if core.PredictionDisagreement(pa, pb) != 0 {
		t.Fatal("same seed should give identical models")
	}
}

func TestLinearBOWSeedSensitivity(t *testing.T) {
	cfg, c := testSetup(t)
	emb := embtrain.NewMC().Train(c, 8, 1)
	ds := Generate(c, cfg, SST2Params())
	a := TrainLinearBOW(emb, ds, DefaultLinearBOWConfig(1))
	b := TrainLinearBOW(emb, ds, DefaultLinearBOWConfig(2))
	// Different downstream seeds may disagree a little, but both should
	// still be reasonable models (Appendix E.3 quantifies this).
	if a.Accuracy(ds.Test) < 0.6 || b.Accuracy(ds.Test) < 0.6 {
		t.Fatal("seed change destroyed accuracy")
	}
}

func TestDownstreamInstabilityPipeline(t *testing.T) {
	// End-to-end Definition 1: train on Wiki'17 and Wiki'18 embeddings,
	// measure prediction disagreement. It should be nonzero (instability
	// exists) but far below chance (models mostly agree).
	cfg := corpus.TestConfig()
	c17 := corpus.Generate(cfg, corpus.Wiki17)
	c18 := corpus.Generate(cfg, corpus.Wiki18)
	tr := embtrain.NewMC()
	e17 := tr.Train(c17, 16, 1)
	e18 := tr.Train(c18, 16, 1)
	e18.AlignTo(e17, 0)

	ds := Generate(c17, cfg, SST2Params())
	m17 := TrainLinearBOW(e17, ds, DefaultLinearBOWConfig(1))
	m18 := TrainLinearBOW(e18, ds, DefaultLinearBOWConfig(1))
	di := core.PredictionDisagreementPct(m17.Predict(ds.Test), m18.Predict(ds.Test))
	if di <= 0 {
		t.Fatal("expected nonzero downstream instability")
	}
	if di >= 50 {
		t.Fatalf("downstream instability %.1f%% at chance level", di)
	}
	t.Logf("SST-2 downstream instability: %.2f%%", di)
}

func TestFineTunedTrainsAndImproves(t *testing.T) {
	cfg, c := testSetup(t)
	emb := embtrain.NewMC().Train(c, 8, 1)
	ds := Generate(c, cfg, MPQAParams())
	cfgM := DefaultLinearBOWConfig(1)
	cfgM.Epochs = 15
	m := TrainLinearBOWFineTuned(emb, ds, cfgM)
	if acc := m.Accuracy(ds.Test); acc < 0.6 {
		t.Fatalf("fine-tuned accuracy %.3f too low", acc)
	}
	// Fine-tuning must not mutate the original embedding.
	emb2 := embtrain.NewMC().Train(c, 8, 1)
	for i := range emb.Vectors.Data {
		if emb.Vectors.Data[i] != emb2.Vectors.Data[i] {
			t.Fatal("fine-tuning mutated the shared embedding")
		}
	}
}

func TestFeaturesBitwiseEqualsReference(t *testing.T) {
	cfg, c := testSetup(t)
	emb := embtrain.NewMC().Train(c, 16, 1)
	ds := Generate(c, cfg, SST2Params())
	ref := featuresReference(emb, ds.Train)
	for _, workers := range []int{1, 4} {
		fast := Features(emb, ds.TrainCounts(), ds.Train, workers)
		if fast.Rows != ref.Rows || fast.Cols != ref.Cols {
			t.Fatal("feature shape mismatch")
		}
		for i := range ref.Data {
			if fast.Data[i] != ref.Data[i] {
				t.Fatalf("workers=%d: feature element %d: %v != %v", workers, i, fast.Data[i], ref.Data[i])
			}
		}
	}
}

func TestLinearBOWBitwiseMatchesReference(t *testing.T) {
	cfg, c := testSetup(t)
	emb := embtrain.NewMC().Train(c, 16, 1)
	ds := Generate(c, cfg, MPQAParams())
	mcfg := DefaultLinearBOWConfig(7)
	fast := TrainLinearBOW(emb, ds, mcfg)
	ref := TrainLinearBOWReference(emb, ds, mcfg)
	for i, v := range fast.lin.W.Value.Data {
		if ref.lin.W.Value.Data[i] != v {
			t.Fatalf("weight %d: fast %v != reference %v", i, v, ref.lin.W.Value.Data[i])
		}
	}
	for i, v := range fast.lin.B.Value.Data {
		if ref.lin.B.Value.Data[i] != v {
			t.Fatalf("bias %d: fast %v != reference %v", i, v, ref.lin.B.Value.Data[i])
		}
	}
	pf, pr := fast.Predict(ds.Test), ref.Predict(ds.Test)
	if core.PredictionDisagreement(pf, pr) != 0 {
		t.Fatal("fast and reference trainers disagree on predictions")
	}
	if fast.Accuracy(ds.Test) != ref.Accuracy(ds.Test) {
		t.Fatal("fast and reference accuracy differ")
	}
}

func TestCNNBitwiseMatchesReference(t *testing.T) {
	cfg, c := testSetup(t)
	emb := embtrain.NewMC().Train(c, 16, 1)
	p := MPQAParams()
	p.TrainN, p.TestN = 120, 80
	ds := Generate(c, cfg, p)
	ccfg := DefaultCNNConfig(3)
	ccfg.Epochs = 3
	fast := TrainCNN(emb, ds, ccfg)
	ref := TrainCNNReference(emb, ds, ccfg)
	for pi, pp := range fast.conv.Params() {
		rp := ref.conv.Params()[pi]
		for i, v := range pp.Value.Data {
			if rp.Value.Data[i] != v {
				t.Fatalf("conv param %s[%d]: fast %v != reference %v", pp.Name, i, v, rp.Value.Data[i])
			}
		}
	}
	if core.PredictionDisagreement(fast.Predict(ds.Test), ref.Predict(ds.Test)) != 0 {
		t.Fatal("fast and reference CNN trainers disagree on predictions")
	}
}

func TestCNNLearns(t *testing.T) {
	cfg, c := testSetup(t)
	emb := embtrain.NewMC().Train(c, 16, 1)
	p := MPQAParams() // short sentences keep the CNN fast
	p.TrainN, p.TestN = 200, 100
	ds := Generate(c, cfg, p)
	m := TrainCNN(emb, ds, DefaultCNNConfig(1))
	acc := AccuracyOf(m.Predict(ds.Test), ds.Test)
	if acc < 0.6 {
		t.Fatalf("CNN accuracy %.3f too low", acc)
	}
	t.Logf("CNN accuracy: %.3f", acc)
}
