package core

import (
	"container/list"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"anchor/internal/embedding"
	"anchor/internal/floats"
	"anchor/internal/matrix"
)

func randEmb(n, d int, seed int64) *embedding.Embedding {
	rng := rand.New(rand.NewSource(seed))
	e := embedding.New(n, d)
	for i := range e.Vectors.Data {
		e.Vectors.Data[i] = rng.NormFloat64()
	}
	return e
}

// ResetSVDCache clears the shared SVD cache, so a test can observe
// recomputation.
func ResetSVDCache() {
	sharedSVDs.mu.Lock()
	sharedSVDs.m = make(map[string]*list.Element)
	sharedSVDs.lru = list.New()
	sharedSVDs.mu.Unlock()
}

// NaiveDistance computes the eigenspace instability measure directly from
// Definition 2, materializing the n-by-n matrices: the oracle for the
// efficient Distance.
func (m *EigenspaceInstability) NaiveDistance(x, xt *embedding.Embedding) float64 {
	n := x.Rows()
	u := thinSVD(x).U
	ut := thinSVD(xt).U

	sigma := matrix.NewDense(n, n)
	for _, anchor := range []*embedding.Embedding{m.E, m.ETilde} {
		s := thinSVD(anchor)
		scale := powColumnScales(s.S, m.Alpha)
		va := s.U.Clone()
		for i := 0; i < va.Rows; i++ {
			row := va.Row(i)
			for j := range row {
				row[j] *= scale[j]
			}
		}
		sigma.Add(matrix.MulABTWorkers(va, va, 0))
	}

	uut := matrix.MulABTWorkers(u, u, 0)
	utut := matrix.MulABTWorkers(ut, ut, 0)
	cross := matrix.MulWorkers(utut, uut, 0)
	floats.Scale(2, cross.Data)
	inner := uut.Clone().Add(utut).Sub(cross)
	prod := matrix.MulWorkers(inner, sigma, 0)
	var num, den float64
	for i := 0; i < n; i++ {
		num += prod.At(i, i)
		den += sigma.At(i, i)
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// perturb returns a copy of e with Gaussian noise of the given scale.
func perturb(e *embedding.Embedding, scale float64, seed int64) *embedding.Embedding {
	rng := rand.New(rand.NewSource(seed))
	c := e.Clone()
	for i := range c.Vectors.Data {
		c.Vectors.Data[i] += scale * rng.NormFloat64()
	}
	return c
}

func TestPredictionDisagreement(t *testing.T) {
	a := []int{1, 0, 1, 1}
	b := []int{1, 1, 1, 0}
	if got := PredictionDisagreement(a, b); got != 0.5 {
		t.Fatalf("disagreement = %v, want 0.5", got)
	}
	if got := PredictionDisagreementPct(a, b); got != 50 {
		t.Fatalf("pct = %v, want 50", got)
	}
	if PredictionDisagreement([]string{}, []string{}) != 0 {
		t.Fatal("empty disagreement should be 0")
	}
}

func TestPredictionDisagreementPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PredictionDisagreement([]int{1}, []int{1, 2})
}

func TestMeasuresZeroOnIdenticalEmbeddings(t *testing.T) {
	x := randEmb(40, 6, 1)
	anchors := randEmb(40, 10, 2)
	for _, m := range AllMeasures(anchors, anchors) {
		d := m.Distance(x, x.Clone())
		if d < -1e-9 || d > 1e-6 {
			t.Fatalf("%s: distance on identical embeddings = %v, want ~0", m.Name(), d)
		}
	}
}

func TestMeasuresIncreaseWithPerturbation(t *testing.T) {
	x := randEmb(60, 8, 3)
	e := randEmb(60, 12, 4)
	et := perturb(e, 0.01, 5)
	small := perturb(x, 0.05, 6)
	large := perturb(x, 1.0, 7)
	for _, m := range AllMeasures(e, et) {
		ds := m.Distance(x, small)
		dl := m.Distance(x, large)
		if ds >= dl {
			t.Fatalf("%s: small perturbation %v >= large %v", m.Name(), ds, dl)
		}
	}
}

func TestMeasureRangesProperty(t *testing.T) {
	f := func(seed int64) bool {
		x := randEmb(25, 4, seed)
		y := randEmb(25, 4, seed+1000)
		e := randEmb(25, 6, seed+2000)
		et := randEmb(25, 6, seed+3000)
		// Bounded measures stay in [0, their bound].
		if d := NewEigenspaceInstability(e, et).Distance(x, y); d < 0 || d > 1+1e-9 {
			return false
		}
		knn := &KNN{K: 3, Queries: 10, Seed: 1}
		if d := knn.Distance(x, y); d < 0 || d > 1+1e-9 {
			return false
		}
		if d := (EigenspaceOverlap{}).Distance(x, y); d < -1e-9 || d > 1+1e-9 {
			return false
		}
		if d := (SemanticDisplacement{}).Distance(x, y); d < 0 || d > 2+1e-9 {
			return false
		}
		return (PIPLoss{}).Distance(x, y) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestKNNSymmetricIdentity(t *testing.T) {
	x := randEmb(30, 5, 8)
	m := &KNN{K: 5, Queries: 30, Seed: 1}
	if d := m.Distance(x, x); d != 0 {
		t.Fatalf("KNN self-distance = %v", d)
	}
}

func TestNeighborSetsExcludeSelf(t *testing.T) {
	x := randEmb(20, 4, 9)
	sets := neighborSets(x, []int{3}, 5, 1)
	if len(sets) != 1 || len(sets[0]) != 5 {
		t.Fatalf("got %v", sets)
	}
	for _, w := range sets[0] {
		if w == 3 {
			t.Fatal("query included in its own neighbors")
		}
	}
}

func TestPIPLossMatchesNaive(t *testing.T) {
	x := randEmb(15, 3, 10)
	y := randEmb(15, 4, 11)
	got := (PIPLoss{}).Distance(x, y)
	gx := matrix.MulABTWorkers(x.Vectors, x.Vectors, 0)
	gy := matrix.MulABTWorkers(y.Vectors, y.Vectors, 0)
	want := gx.Sub(gy).FrobNorm()
	if math.Abs(got-want) > 1e-8*(1+want) {
		t.Fatalf("PIP loss %v != naive %v", got, want)
	}
}

func TestEigenspaceOverlapRotationInvariant(t *testing.T) {
	// An orthogonal rotation spans the same subspace: overlap distance ~ 0.
	x := randEmb(30, 5, 12)
	rng := rand.New(rand.NewSource(13))
	s := matrix.ComputeSVDWorkers(matrix.NewDenseRand(5, 5, 1, rng), 0)
	rot := matrix.MulABTWorkers(s.U, s.V, 0)
	y := &embedding.Embedding{Vectors: matrix.MulWorkers(x.Vectors, rot, 0)}
	if d := (EigenspaceOverlap{}).Distance(x, y); d > 1e-8 {
		t.Fatalf("overlap distance after rotation = %v, want ~0", d)
	}
}

func TestEigenspaceInstabilityEfficientMatchesNaive(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		x := randEmb(25, 4, 20+seed)
		y := randEmb(25, 6, 30+seed)
		e := randEmb(25, 8, 40+seed)
		et := randEmb(25, 8, 50+seed)
		m := NewEigenspaceInstability(e, et)
		eff := m.Distance(x, y)
		naive := m.NaiveDistance(x, y)
		if math.Abs(eff-naive) > 1e-8*(1+naive) {
			t.Fatalf("seed %d: efficient %v != naive %v", seed, eff, naive)
		}
	}
}

func TestEigenspaceInstabilityOrthogonalSubspaces(t *testing.T) {
	// X spans e1..e2, X̃ spans e3..e4 of R^8; with Σ = I-ish anchors
	// covering the whole space the measure should be large (near 1 when
	// Σ weights the union of the subspaces).
	n := 8
	x := embedding.New(n, 2)
	y := embedding.New(n, 2)
	x.Vectors.Set(0, 0, 1)
	x.Vectors.Set(1, 1, 1)
	y.Vectors.Set(2, 0, 1)
	y.Vectors.Set(3, 1, 1)
	// Anchors: identity embeddings spanning all of R^n with equal weight.
	e := embedding.New(n, n)
	for i := 0; i < n; i++ {
		e.Vectors.Set(i, i, 1)
	}
	m := &EigenspaceInstability{E: e, ETilde: e, Alpha: 1}
	got := m.Distance(x, y)
	// Σ = 2I: numerator tr((UUᵀ+ŨŨᵀ−2ŨŨᵀUUᵀ)·2I) = 2·(2+2−0) = 8,
	// denominator tr(Σ) = 2n = 16, so the measure is 0.5.
	if math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("orthogonal subspace EIS = %v, want 0.5", got)
	}
	// Identical subspaces → 0.
	if d := m.Distance(x, x.Clone()); math.Abs(d) > 1e-9 {
		t.Fatalf("identical subspace EIS = %v, want 0", d)
	}
}

// TestProposition1 verifies the paper's central theorem: the expected
// normalized disagreement between linear regression models trained on X
// and X̃ with labels y ~ N(0, Σ) equals the eigenspace instability
// measure with that Σ.
func TestProposition1(t *testing.T) {
	n := 30
	x := randEmb(n, 4, 60)
	y := randEmb(n, 5, 61)
	e := randEmb(n, 6, 62)
	et := randEmb(n, 6, 63)
	for _, alpha := range []float64{1, 3} {
		m := &EigenspaceInstability{E: e, ETilde: et, Alpha: alpha}
		want := m.Distance(x, y)
		sqrtSigma := AnchorCovarianceSqrt(e, et, alpha)
		got := ExpectedLinearDisagreement(x, y, sqrtSigma, 4000, 64)
		if math.Abs(got-want) > 0.05*(want+0.01) {
			t.Fatalf("alpha=%v: Monte-Carlo %v vs closed form %v", alpha, got, want)
		}
	}
}

func TestLinearRegressionPredictionsMatchNormalEquations(t *testing.T) {
	n, d := 20, 4
	x := randEmb(n, d, 70)
	rng := rand.New(rand.NewSource(71))
	y := make([]float64, n)
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	got := LinearRegressionPredictions(x, y)
	w := matrix.LeastSquares(x.Vectors, y)
	want := matrix.MulVec(x.Vectors, w)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-8 {
			t.Fatalf("prediction %d: %v != %v", i, got[i], want[i])
		}
	}
}

func TestAnchorCovarianceSqrtShape(t *testing.T) {
	e := randEmb(12, 3, 80)
	et := randEmb(12, 4, 81)
	s := AnchorCovarianceSqrt(e, et, 2)
	if s.Rows != 12 || s.Cols != 7 {
		t.Fatalf("shape %dx%d, want 12x7", s.Rows, s.Cols)
	}
	// S Sᵀ must equal (EEᵀ)² + (ẼẼᵀ)².
	sst := matrix.MulABTWorkers(s, s, 0)
	ge := matrix.MulABTWorkers(e.Vectors, e.Vectors, 0)
	gt := matrix.MulABTWorkers(et.Vectors, et.Vectors, 0)
	want := matrix.MulWorkers(ge, ge, 0).Add(matrix.MulWorkers(gt, gt, 0))
	diff := sst.Sub(want).FrobNorm()
	if diff > 1e-7*(1+want.FrobNorm()) {
		t.Fatalf("S Sᵀ mismatch: %v", diff)
	}
}

func TestSVDCacheConsistency(t *testing.T) {
	ResetSVDCache()
	x := randEmb(20, 4, 90)
	x.Meta = embedding.Meta{Algorithm: "mc", Corpus: "wiki17", Dim: 4, Seed: 90, Precision: 32}
	a := thinSVD(x)
	b := thinSVD(x)
	if &a.U.Data[0] != &b.U.Data[0] {
		t.Fatal("cached SVD not reused")
	}
	ResetSVDCache()
	c := thinSVD(x)
	if &a.U.Data[0] == &c.U.Data[0] {
		t.Fatal("cache not cleared")
	}
}
