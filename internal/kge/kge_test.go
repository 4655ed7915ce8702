package kge

import (
	"testing"
	"testing/quick"
)

func testGraph(t *testing.T) *Graph {
	t.Helper()
	return GenerateGraph(TestGraphConfig())
}

// meanRank returns the average tail rank (the link prediction quality
// metric).
func meanRank(ranks []int) float64 {
	var s float64
	for _, r := range ranks {
		s += float64(r)
	}
	return s / float64(len(ranks))
}

// hitsAt returns the fraction of ranks at or below k (hits@k).
func hitsAt(ranks []int, k int) float64 {
	n := 0
	for _, r := range ranks {
		if r <= k {
			n++
		}
	}
	return float64(n) / float64(len(ranks))
}

// classificationAccuracy returns the accuracy of preds against the set's
// labels.
func classificationAccuracy(set ClassificationSet, preds []bool) float64 {
	correct := 0
	for i := range preds {
		if preds[i] == set.Labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(preds))
}

func TestGenerateGraphShape(t *testing.T) {
	cfg := TestGraphConfig()
	g := GenerateGraph(cfg)
	if len(g.Train) != cfg.TrainN || len(g.Valid) != cfg.ValidN || len(g.Test) != cfg.TestN {
		t.Fatalf("split sizes %d/%d/%d", len(g.Train), len(g.Valid), len(g.Test))
	}
	seen := map[Triplet]bool{}
	for _, tr := range g.Train {
		if tr.H == tr.T {
			t.Fatal("self-loop triplet")
		}
		if int(tr.H) >= cfg.Entities || int(tr.T) >= cfg.Entities || int(tr.R) >= cfg.Relations {
			t.Fatal("triplet indices out of range")
		}
		if seen[tr] {
			t.Fatal("duplicate triplet")
		}
		seen[tr] = true
	}
}

func TestGenerateGraphDeterministic(t *testing.T) {
	a := testGraph(t)
	b := testGraph(t)
	for i := range a.Train {
		if a.Train[i] != b.Train[i] {
			t.Fatal("graph generation not deterministic")
		}
	}
}

func TestSubsample(t *testing.T) {
	g := testGraph(t)
	s := Subsample(g, 0.95, 1)
	want := int(float64(len(g.Train)) * 0.95)
	if len(s.Train) != want {
		t.Fatalf("subsample size %d, want %d", len(s.Train), want)
	}
	if len(s.Valid) != len(g.Valid) || len(s.Test) != len(g.Test) {
		t.Fatal("valid/test must be unchanged")
	}
	// All kept triplets must come from the original train set.
	in := map[Triplet]bool{}
	for _, tr := range g.Train {
		in[tr] = true
	}
	for _, tr := range s.Train {
		if !in[tr] {
			t.Fatal("subsample invented a triplet")
		}
	}
}

func TestTransELearnsStructure(t *testing.T) {
	g := testGraph(t)
	m := TrainTransE(g, DefaultTransEConfig(16, 1))
	ranks := m.TailRanks(g.Test)
	mr := meanRank(ranks)
	// Random guessing gives mean rank ≈ Entities/2 = 60.
	if mr > 30 {
		t.Fatalf("TransE mean rank %.1f no better than chance", mr)
	}
	t.Logf("TransE mean tail rank: %.2f / %d entities", mr, g.NumEntities)
}

func TestTransEDeterministic(t *testing.T) {
	g := testGraph(t)
	a := TrainTransE(g, DefaultTransEConfig(8, 3))
	b := TrainTransE(g, DefaultTransEConfig(8, 3))
	for i := range a.Entity.Data {
		if a.Entity.Data[i] != b.Entity.Data[i] {
			t.Fatal("TransE training not deterministic")
		}
	}
}

func TestUnstableRankAt10(t *testing.T) {
	a := []int{1, 5, 100, 50}
	b := []int{2, 40, 100, 55}
	// Diffs: 1, 35, 0, 5 → one above 10.
	if got := UnstableRankAt10(a, b); got != 0.25 {
		t.Fatalf("unstable-rank@10 = %v, want 0.25", got)
	}
	if UnstableRankAt10(nil, nil) != 0 {
		t.Fatal("empty should be 0")
	}
}

func TestUnstableRankSymmetryProperty(t *testing.T) {
	f := func(seedA, seedB uint8) bool {
		a := []int{int(seedA), int(seedB), int(seedA) + int(seedB)}
		b := []int{int(seedB), int(seedA), 5}
		return UnstableRankAt10(a, b) == UnstableRankAt10(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClassificationSetBalanced(t *testing.T) {
	g := testGraph(t)
	set := BuildClassificationSet(g, g.Valid, 1)
	if len(set.Triplets) != 2*len(g.Valid) {
		t.Fatalf("set size %d", len(set.Triplets))
	}
	pos := 0
	for _, l := range set.Labels {
		if l {
			pos++
		}
	}
	if pos != len(g.Valid) {
		t.Fatal("positives != source triplets")
	}
}

func TestTripletClassificationBeatsChance(t *testing.T) {
	g := testGraph(t)
	m := TrainTransE(g, DefaultTransEConfig(16, 1))
	val := BuildClassificationSet(g, g.Valid, 1)
	test := BuildClassificationSet(g, g.Test, 2)
	th := m.TuneThresholds(g.NumRelations, val)
	acc := classificationAccuracy(test, m.Classify(test, th))
	if acc < 0.6 {
		t.Fatalf("triplet classification accuracy %.3f barely above chance", acc)
	}
	t.Logf("triplet classification accuracy: %.3f", acc)
}

func TestQuantizePairMoreBitsCloser(t *testing.T) {
	g := testGraph(t)
	m := TrainTransE(g, DefaultTransEConfig(8, 1))
	var prev float64 = -1
	for _, bits := range []int{1, 4, 8, 32} {
		q, _ := QuantizePair(m, m, bits, 0)
		var mse float64
		for i := range m.Entity.Data {
			d := m.Entity.Data[i] - q.Entity.Data[i]
			mse += d * d
		}
		if prev >= 0 && mse > prev+1e-12 {
			t.Fatalf("MSE increased at %d bits", bits)
		}
		prev = mse
	}
}

func TestKGEInstabilityPipeline(t *testing.T) {
	// End-to-end Section 6.1: FB15K vs FB15K-95, instability between the
	// two models on link prediction and triplet classification.
	g := testGraph(t)
	g95 := Subsample(g, 0.95, 7)
	cfg := DefaultTransEConfig(16, 1)
	mFull := TrainTransE(g, cfg)
	m95 := TrainTransE(g95, cfg)

	ur := UnstableRankAt10(m95.TailRanks(g.Test), mFull.TailRanks(g.Test))
	if ur <= 0 || ur >= 1 {
		t.Fatalf("unstable-rank@10 = %v, want in (0,1)", ur)
	}
	t.Logf("unstable-rank@10: %.3f", ur)

	test := BuildClassificationSet(g, g.Test, 2)
	val := BuildClassificationSet(g, g.Valid, 1)
	th := m95.TuneThresholds(g.NumRelations, val) // shared thresholds, Fig. 3 protocol
	pa := m95.Classify(test, th)
	pb := mFull.Classify(test, th)
	diff := 0
	for i := range pa {
		if pa[i] != pb[i] {
			diff++
		}
	}
	frac := float64(diff) / float64(len(pa))
	if frac <= 0 || frac >= 0.5 {
		t.Fatalf("triplet classification disagreement %.3f implausible", frac)
	}
	t.Logf("triplet classification disagreement: %.3f", frac)
}

func TestBestThresholdSeparable(t *testing.T) {
	ss := []scored{
		{0.1, true}, {0.2, true}, {0.9, false}, {1.1, false},
	}
	th := bestThreshold(ss)
	if th <= 0.2 || th >= 0.9 {
		t.Fatalf("threshold %v should separate 0.2 and 0.9", th)
	}
}

func TestHitsImproveWithTraining(t *testing.T) {
	g := testGraph(t)
	short := DefaultTransEConfig(16, 1)
	short.Epochs = 1
	long := DefaultTransEConfig(16, 1)
	weak := TrainTransE(g, short)
	strong := TrainTransE(g, long)
	hw := hitsAt(weak.TailRanks(g.Test), 10)
	hs := hitsAt(strong.TailRanks(g.Test), 10)
	if hs <= hw {
		t.Fatalf("training did not improve hits@10: %v -> %v", hw, hs)
	}
}
