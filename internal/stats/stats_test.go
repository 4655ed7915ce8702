package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRanksNoTies(t *testing.T) {
	got := Ranks([]float64{10, 30, 20})
	want := []float64{1, 3, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ranks = %v, want %v", got, want)
		}
	}
}

func TestRanksWithTies(t *testing.T) {
	got := Ranks([]float64{1, 2, 2, 3})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ranks = %v, want %v", got, want)
		}
	}
}

func TestSpearmanPerfectMonotone(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 9, 16, 30} // monotone but nonlinear
	if got := Spearman(x, y); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Spearman = %v, want 1", got)
	}
	yr := []float64{30, 16, 9, 4, 2}
	if got := Spearman(x, yr); math.Abs(got+1) > 1e-12 {
		t.Fatalf("Spearman = %v, want -1", got)
	}
}

func TestSpearmanKnownValue(t *testing.T) {
	// Classic example: ranks differ by small permutation.
	x := []float64{106, 86, 100, 101, 99, 103, 97, 113, 112, 110}
	y := []float64{7, 0, 27, 50, 28, 29, 20, 12, 6, 17}
	got := Spearman(x, y)
	if math.Abs(got-(-0.17575757575757575)) > 1e-9 {
		t.Fatalf("Spearman = %v, want -0.1757...", got)
	}
}

func TestSpearmanBoundedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = float64(rng.Intn(5)) // ties likely
			y[i] = rng.NormFloat64()
		}
		s := Spearman(x, y)
		return s >= -1-1e-9 && s <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSpearmanInvariantToMonotoneTransform(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 30
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	base := Spearman(x, y)
	x2 := make([]float64, n)
	for i := range x {
		x2[i] = math.Exp(x[i]) // strictly monotone
	}
	if math.Abs(Spearman(x2, y)-base) > 1e-12 {
		t.Fatal("Spearman not invariant to monotone transform")
	}
}

func TestPearsonZeroVariance(t *testing.T) {
	if Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}) != 0 {
		t.Fatal("Pearson with constant input should be 0")
	}
}

func TestFitLinearLogRecoversKnownTrend(t *testing.T) {
	// Generate DI = C_t - 1.3*log2(m) exactly and verify recovery.
	var pts []LinearLogPoint
	intercepts := map[string]float64{"sst2": 20, "ner": 12}
	for task, c := range intercepts {
		for _, m := range []float64{32, 64, 128, 256, 512} {
			pts = append(pts, LinearLogPoint{Task: task, X: m, Y: c - 1.3*math.Log2(m)})
		}
	}
	fit := FitLinearLog(pts)
	if math.Abs(fit.Slope-1.3) > 1e-9 {
		t.Fatalf("Slope = %v, want 1.3", fit.Slope)
	}
	for task, c := range intercepts {
		if math.Abs(fit.Intercepts[task]-c) > 1e-9 {
			t.Fatalf("Intercept[%s] = %v, want %v", task, fit.Intercepts[task], c)
		}
	}
}

func TestFitLinearLogNoisyRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var pts []LinearLogPoint
	for _, m := range []float64{8, 16, 32, 64, 128, 256, 512, 1024} {
		for s := 0; s < 5; s++ {
			pts = append(pts, LinearLogPoint{
				Task: "t", X: m, Y: 15 - 1.3*math.Log2(m) + 0.2*rng.NormFloat64(),
			})
		}
	}
	fit := FitLinearLog(pts)
	if math.Abs(fit.Slope-1.3) > 0.15 {
		t.Fatalf("noisy slope = %v, want ≈1.3", fit.Slope)
	}
}

func TestFitLinearLogPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nonpositive x")
		}
	}()
	FitLinearLog([]LinearLogPoint{{Task: "a", X: 0, Y: 1}, {Task: "a", X: 1, Y: 1}})
}
