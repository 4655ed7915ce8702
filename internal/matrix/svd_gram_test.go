package matrix

import (
	"math"
	"math/rand"
	"testing"
)

// TestGramSVDMatchesJacobi cross-validates the two SVD paths on tall-thin
// inputs: identical singular values (within tolerance), orthonormal
// factors, and agreeing reconstructions U·diag(S)·Vᵀ.
func TestGramSVDMatchesJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, sh := range [][2]int{{30, 3}, {100, 16}, {300, 64}, {50, 10}} {
		a := NewDenseRand(sh[0], sh[1], 1, rng)
		g, ok := gramSVD(a, 1)
		if !ok {
			t.Fatalf("%dx%d: gram path unexpectedly declined", sh[0], sh[1])
		}
		j := jacobiSVD(a)
		if len(g.S) != len(j.S) {
			t.Fatalf("%dx%d: rank %d vs %d", sh[0], sh[1], len(g.S), len(j.S))
		}
		for i := range g.S {
			if !almostEqual(g.S[i], j.S[i], 1e-9*(1+j.S[0])) {
				t.Fatalf("%dx%d: σ[%d] = %v vs %v", sh[0], sh[1], i, g.S[i], j.S[i])
			}
		}
		// U and V columns may differ by sign, so compare reconstructions.
		matAlmostEqual(t, g.Reconstruct(), j.Reconstruct(), 1e-8*(1+j.S[0]))
	}
}

func TestGramSVDOrthonormalFactors(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	a := NewDenseRand(400, 32, 1, rng)
	s, ok := gramSVD(a, 1)
	if !ok {
		t.Fatal("gram path declined a well-conditioned tall-thin matrix")
	}
	r := len(s.S)
	matAlmostEqual(t, MulATB(s.U, s.U), Identity(r), 1e-10)
	matAlmostEqual(t, MulATB(s.V, s.V), Identity(r), 1e-10)
	for i := 1; i < r; i++ {
		if s.S[i] > s.S[i-1]+1e-12 {
			t.Fatalf("singular values not descending: %v", s.S)
		}
	}
}

// TestGramSVDDeclinesIllConditioned builds a tall-thin matrix whose
// smallest singular value sits far below the Gram trust gate; ComputeSVD
// must fall back to one-sided Jacobi and still recover it accurately.
func TestGramSVDDeclinesIllConditioned(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	n, d := 60, 4
	a := NewDense(n, d)
	// Orthogonal-ish columns with σ ≈ {1, 1, 1, 1e-8}.
	base := NewDenseRand(n, d, 1, rng)
	qr := jacobiSVD(base)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			sv := 1.0
			if j == d-1 {
				sv = 1e-8
			}
			a.Set(i, j, qr.U.At(i, j)*sv)
		}
	}
	if _, ok := gramSVD(a, 1); ok {
		t.Fatal("gram path accepted a spectrum below its trust gate")
	}
	s := ComputeSVDWorkers(a, 0)
	if len(s.S) != d {
		t.Fatalf("rank %d, want %d", len(s.S), d)
	}
	if got := s.S[d-1]; math.Abs(got-1e-8) > 1e-12 {
		t.Fatalf("smallest σ = %v, want ~1e-8", got)
	}
}

// TestComputeSVDRoutesTallThin confirms the dispatch: tall-thin inputs use
// the Gram path (same values as calling gramSVD directly), while square
// inputs use Jacobi.
func TestComputeSVDRoutesTallThin(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	tall := NewDenseRand(90, 8, 1, rng)
	g, ok := gramSVD(tall, 1)
	if !ok {
		t.Fatal("gram path declined")
	}
	got := ComputeSVDWorkers(tall, 0)
	matBitwiseEqual(t, got.U, g.U, "ComputeSVD tall-thin U")

	square := NewDenseRand(8, 8, 1, rng)
	j := jacobiSVD(square)
	got = ComputeSVDWorkers(square, 0)
	matBitwiseEqual(t, got.U, j.U, "ComputeSVD square U")
}

func TestJacobiEigSymDiagonalizes(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	b := NewDenseRand(50, 6, 1, rng)
	g := MulATB(b, b) // symmetric PSD
	eig, v := jacobiEigSym(g)
	// V Λ Vᵀ must reconstruct G.
	vl := v.Clone()
	for i := 0; i < vl.Rows; i++ {
		row := vl.Row(i)
		for j := range row {
			row[j] *= eig[j]
		}
	}
	matAlmostEqual(t, MulABTWorkers(vl, v, 0), g, 1e-9*(1+g.FrobNorm()))
	matAlmostEqual(t, MulATB(v, v), Identity(6), 1e-12)
}
