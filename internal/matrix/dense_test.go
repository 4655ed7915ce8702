package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func matAlmostEqual(t *testing.T, a, b *Dense, tol float64) {
	t.Helper()
	if a.Rows != b.Rows || a.Cols != b.Cols {
		t.Fatalf("shape mismatch: %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	for i := range a.Data {
		if !almostEqual(a.Data[i], b.Data[i], tol) {
			t.Fatalf("entry %d: %v != %v", i, a.Data[i], b.Data[i])
		}
	}
}

// Reconstruct returns U * diag(S) * Vᵀ, the matrix represented by the SVD.
func (s SVD) Reconstruct() *Dense {
	r := len(s.S)
	us := s.U.Clone()
	for i := 0; i < us.Rows; i++ {
		row := us.Row(i)
		for j := 0; j < r; j++ {
			row[j] *= s.S[j]
		}
	}
	return MulABTWorkers(us, s.V, 0)
}

func TestMulHandComputed(t *testing.T) {
	a := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := NewDenseData(3, 2, []float64{7, 8, 9, 10, 11, 12})
	got := MulWorkers(a, b, 0)
	want := NewDenseData(2, 2, []float64{58, 64, 139, 154})
	matAlmostEqual(t, got, want, 1e-12)
}

func TestMulATBMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewDenseRand(7, 4, 1, rng)
	b := NewDenseRand(7, 3, 1, rng)
	matAlmostEqual(t, MulATB(a, b), MulWorkers(a.T(), b, 0), 1e-12)
}

func TestMulABTMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := NewDenseRand(5, 6, 1, rng)
	b := NewDenseRand(4, 6, 1, rng)
	matAlmostEqual(t, MulABTWorkers(a, b, 0), MulWorkers(a, b.T(), 0), 1e-12)
}

func TestMulVecAndT(t *testing.T) {
	m := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	got := MulVec(m, []float64{1, 1, 1})
	if got[0] != 6 || got[1] != 15 {
		t.Fatalf("MulVec got %v", got)
	}
	gotT := MulVecT(m, []float64{1, 2})
	want := []float64{9, 12, 15}
	for i := range want {
		if gotT[i] != want[i] {
			t.Fatalf("MulVecT got %v want %v", gotT, want)
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(8)
		c := 1 + rng.Intn(8)
		m := NewDenseRand(r, c, 2, rng)
		tt := m.T().T()
		if tt.Rows != m.Rows || tt.Cols != m.Cols {
			return false
		}
		for i := range m.Data {
			if m.Data[i] != tt.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSVDReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, shape := range [][2]int{{10, 4}, {4, 10}, {6, 6}, {30, 3}} {
		a := NewDenseRand(shape[0], shape[1], 1, rng)
		s := ComputeSVDWorkers(a, 0)
		rec := s.Reconstruct()
		matAlmostEqual(t, rec, a, 1e-9)
	}
}

func TestSVDOrthonormalColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := NewDenseRand(20, 5, 1, rng)
	s := ComputeSVDWorkers(a, 0)
	utu := MulATB(s.U, s.U)
	vtv := MulATB(s.V, s.V)
	matAlmostEqual(t, utu, Identity(len(s.S)), 1e-10)
	matAlmostEqual(t, vtv, Identity(len(s.S)), 1e-10)
	for i := 1; i < len(s.S); i++ {
		if s.S[i] > s.S[i-1]+1e-12 {
			t.Fatalf("singular values not descending: %v", s.S)
		}
	}
}

func TestSVDLowRank(t *testing.T) {
	// Build an explicitly rank-2 matrix; SVD should detect rank 2.
	rng := rand.New(rand.NewSource(5))
	u := NewDenseRand(12, 2, 1, rng)
	v := NewDenseRand(6, 2, 1, rng)
	a := MulABTWorkers(u, v, 0)
	s := ComputeSVDWorkers(a, 0)
	if len(s.S) != 2 {
		t.Fatalf("expected rank 2, got %d singular values %v", len(s.S), s.S)
	}
	matAlmostEqual(t, s.Reconstruct(), a, 1e-9)
}

func TestSVDPropertySingularValuesNonNegative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 2 + rng.Intn(10)
		c := 2 + rng.Intn(5)
		a := NewDenseRand(r, c, 3, rng)
		s := ComputeSVDWorkers(a, 0)
		// Frobenius norm identity: ||A||_F² == Σ σᵢ².
		var sum float64
		for _, sv := range s.S {
			if sv < 0 {
				return false
			}
			sum += sv * sv
		}
		fn := a.FrobNorm()
		return almostEqual(sum, fn*fn, 1e-8*(1+fn*fn))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestProcrustesRecoversRotation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	y := NewDenseRand(40, 5, 1, rng)
	// Build a random orthogonal matrix via SVD of a random square matrix.
	q := ComputeSVDWorkers(NewDenseRand(5, 5, 1, rng), 0)
	rot := MulABTWorkers(q.U, q.V, 0)
	x := MulWorkers(y, rot, 0)
	r := ProcrustesWorkers(x, y, 0)
	matAlmostEqual(t, r, rot, 1e-8)
	// R must be orthogonal.
	matAlmostEqual(t, MulATB(r, r), Identity(5), 1e-10)
}

func TestProcrustesReducesError(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := NewDenseRand(30, 4, 1, rng)
	y := NewDenseRand(30, 4, 1, rng)
	r := ProcrustesWorkers(x, y, 0)
	before := x.Clone().Sub(y).FrobNorm()
	after := x.Clone().Sub(MulWorkers(y, r, 0)).FrobNorm()
	if after > before+1e-12 {
		t.Fatalf("procrustes increased error: before=%v after=%v", before, after)
	}
}

func TestLeastSquaresExact(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := NewDenseRand(20, 4, 1, rng)
	wTrue := []float64{1, -2, 0.5, 3}
	b := MulVec(a, wTrue)
	w := LeastSquares(a, b)
	for i := range wTrue {
		if !almostEqual(w[i], wTrue[i], 1e-8) {
			t.Fatalf("w=%v want %v", w, wTrue)
		}
	}
}

func TestLeastSquaresResidualOrthogonal(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := NewDenseRand(25, 3, 1, rng)
	b := make([]float64, 25)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	w := LeastSquares(a, b)
	pred := MulVec(a, w)
	resid := make([]float64, len(b))
	for i := range b {
		resid[i] = b[i] - pred[i]
	}
	// Residual must be orthogonal to the column space: Aᵀr == 0.
	atr := MulVecT(a, resid)
	for _, v := range atr {
		if math.Abs(v) > 1e-8 {
			t.Fatalf("residual not orthogonal: %v", atr)
		}
	}
}

func TestSolveSPDNotPositiveDefinitePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-PD matrix")
		}
	}()
	m := NewDenseData(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	SolveSPD(m, []float64{1, 1})
}

func TestIdentityAndDiag(t *testing.T) {
	want := NewDenseData(3, 3, []float64{1, 0, 0, 0, 1, 0, 0, 0, 1})
	matAlmostEqual(t, Identity(3), want, 0)
}
