package matrix

import (
	"math"
	"sort"
)

// SVD holds a thin singular value decomposition A = U * diag(S) * Vᵀ,
// where A is n-by-d (n >= rank), U is n-by-r with orthonormal columns,
// S holds the r positive singular values in descending order, and V is
// d-by-r with orthonormal columns. Singular values below RankTol times
// the largest are dropped, so r <= min(n, d) is the numerical rank.
type SVD struct {
	U *Dense
	S []float64
	V *Dense
}

// RankTol is the relative threshold below which singular values are
// treated as zero when forming the thin SVD.
const RankTol = 1e-12

// gramMinRowFactor gates the Gram fast path: it only engages when
// n >= gramMinRowFactor*d, the tall-thin regime where eigendecomposing
// the d-by-d Gram matrix (O(n·d² + d³) total) beats rotating n-length
// columns every Jacobi sweep (O(sweeps·n·d²)).
const gramMinRowFactor = 3

// gramEigTol is the minimum trusted eigenvalue ratio λ/λ_max for the Gram
// path. Forming AᵀA squares the condition number, so singular values below
// √gramEigTol·σ_max ≈ 1e-5·σ_max drown in roundoff; such spectra fall back
// to the one-sided Jacobi SVD, which works on A directly.
const gramEigTol = 1e-10

// ComputeSVDWorkers returns the thin SVD of a. Tall-thin
// well-conditioned inputs (the embedding case: n rows >> d columns) take
// the fast path through the d-by-d Gram matrix eigendecomposition;
// everything else — square, nearly rank-deficient, or ill-conditioned
// matrices — uses the one-sided Jacobi method, which is slower but
// accurate for small singular values. Both paths are deterministic and
// the input is not modified. workers bounds the goroutines of the matrix
// products involved (workers <= 0 selects all CPUs); the decomposition is
// identical for every worker count.
func ComputeSVDWorkers(a *Dense, workers int) SVD {
	if a.Rows >= gramMinRowFactor*a.Cols && a.Cols >= 2 {
		if s, ok := gramSVD(a, workers); ok {
			return s
		}
	}
	return jacobiSVD(a)
}

// gramSVD computes the thin SVD of tall-thin a through the eigendecomposition
// AᵀA = V Λ Vᵀ: σ = √λ and U = A·V·diag(1/σ). U's orthonormality is
// controlled by the Jacobi convergence threshold on the Gram matrix
// (uᵢᵀuⱼ = (VᵀGV)ᵢⱼ/(σᵢσⱼ)), not by the conditioning of A, and
// U·diag(σ) = A·V exactly by construction, so reconstruction holds to
// rotation roundoff. What the Gram path cannot deliver is accurate tiny
// singular values; it reports ok=false for spectra spanning more than
// √gramEigTol so the caller falls back to one-sided Jacobi.
func gramSVD(a *Dense, workers int) (SVD, bool) {
	n, d := a.Rows, a.Cols
	g := MulATBWorkers(a, a, workers)
	eig, vecs := jacobiEigSym(g)

	// Sort eigenpairs descending; break exact ties by column index so the
	// ordering is deterministic.
	type pair struct {
		lambda float64
		idx    int
	}
	ps := make([]pair, d)
	for j := 0; j < d; j++ {
		ps[j] = pair{eig[j], j}
	}
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].lambda != ps[j].lambda {
			return ps[i].lambda > ps[j].lambda
		}
		return ps[i].idx < ps[j].idx
	})
	lmax := ps[0].lambda
	if lmax <= 0 {
		return SVD{}, false // degenerate; let Jacobi handle shape sanity
	}

	// Thin rank cut at RankTol on σ (i.e. RankTol² on λ), mirroring the
	// Jacobi path. If any retained eigenvalue is below the trust gate the
	// squared spectrum is too ill-conditioned for the Gram path.
	rank := 0
	for rank < d {
		l := ps[rank].lambda
		if l <= 0 || math.Sqrt(l) <= RankTol*math.Sqrt(lmax) {
			break
		}
		if l < gramEigTol*lmax {
			return SVD{}, false
		}
		rank++
	}
	if rank == 0 {
		return SVD{}, false
	}

	sv := make([]float64, rank)
	vOut := NewDense(d, rank)
	for r := 0; r < rank; r++ {
		sv[r] = math.Sqrt(ps[r].lambda)
		j := ps[r].idx
		for i := 0; i < d; i++ {
			vOut.Data[i*rank+r] = vecs.Data[i*d+j]
		}
	}
	u := MulWorkers(a, vOut, workers)
	for i := 0; i < n; i++ {
		row := u.Row(i)
		for r := 0; r < rank; r++ {
			row[r] /= sv[r]
		}
	}
	return SVD{U: u, S: sv, V: vOut}, true
}

// jacobiEigSym diagonalizes the symmetric matrix g with the cyclic Jacobi
// eigenvalue method, returning the eigenvalues and the orthogonal matrix
// of eigenvectors (column j pairs with eigenvalue j): g = V Λ Vᵀ. The
// input is not modified.
func jacobiEigSym(g *Dense) ([]float64, *Dense) {
	d := g.Rows
	w := g.Clone()
	v := Identity(d)

	const maxSweeps = 60
	eps := 1e-14
	for sweep := 0; sweep < maxSweeps; sweep++ {
		rotated := 0
		for p := 0; p < d-1; p++ {
			for q := p + 1; q < d; q++ {
				app := w.At(p, p)
				aqq := w.At(q, q)
				apq := w.At(p, q)
				if apq == 0 || math.Abs(apq) <= eps*math.Sqrt(math.Abs(app)*math.Abs(aqq)) {
					continue
				}
				rotated++
				zeta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, zeta) / (math.Abs(zeta) + math.Sqrt(1+zeta*zeta))
				c := 1 / math.Sqrt(1+t*t)
				s := c * t
				// w <- Jᵀ w J: rotate rows p,q then columns p,q.
				for i := 0; i < d; i++ {
					wpi := w.At(p, i)
					wqi := w.At(q, i)
					w.Set(p, i, c*wpi-s*wqi)
					w.Set(q, i, s*wpi+c*wqi)
				}
				for i := 0; i < d; i++ {
					wip := w.At(i, p)
					wiq := w.At(i, q)
					w.Set(i, p, c*wip-s*wiq)
					w.Set(i, q, s*wip+c*wiq)
				}
				for i := 0; i < d; i++ {
					vip := v.At(i, p)
					viq := v.At(i, q)
					v.Set(i, p, c*vip-s*viq)
					v.Set(i, q, s*vip+c*viq)
				}
			}
		}
		if rotated == 0 {
			break
		}
	}
	eig := make([]float64, d)
	for j := 0; j < d; j++ {
		eig[j] = w.At(j, j)
	}
	return eig, v
}

// jacobiSVD computes the thin SVD with the one-sided Jacobi method, which
// is simple and numerically robust for any shape or conditioning. It is
// the fallback behind ComputeSVDWorkers' Gram fast path. The input is not
// modified.
func jacobiSVD(a *Dense) SVD {
	n, d := a.Rows, a.Cols
	if n < d {
		// Jacobi works column-wise; decompose the transpose and swap U/V.
		s := jacobiSVD(a.T())
		return SVD{U: s.V, S: s.S, V: s.U}
	}
	// Work on a copy: W starts as A; Jacobi rotations orthogonalize its
	// columns. At convergence W = U*diag(S) and V accumulates rotations.
	w := a.Clone()
	v := Identity(d)

	const maxSweeps = 60
	eps := 1e-14
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for p := 0; p < d-1; p++ {
			for q := p + 1; q < d; q++ {
				var alpha, beta, gamma float64
				for i := 0; i < n; i++ {
					wp := w.Data[i*d+p]
					wq := w.Data[i*d+q]
					alpha += wp * wp
					beta += wq * wq
					gamma += wp * wq
				}
				if alpha == 0 || beta == 0 {
					continue
				}
				if math.Abs(gamma) <= eps*math.Sqrt(alpha*beta) {
					continue
				}
				off++
				// Jacobi rotation that zeroes the (p,q) inner product.
				zeta := (beta - alpha) / (2 * gamma)
				t := math.Copysign(1, zeta) / (math.Abs(zeta) + math.Sqrt(1+zeta*zeta))
				c := 1 / math.Sqrt(1+t*t)
				s := c * t
				for i := 0; i < n; i++ {
					wp := w.Data[i*d+p]
					wq := w.Data[i*d+q]
					w.Data[i*d+p] = c*wp - s*wq
					w.Data[i*d+q] = s*wp + c*wq
				}
				for i := 0; i < d; i++ {
					vp := v.Data[i*d+p]
					vq := v.Data[i*d+q]
					v.Data[i*d+p] = c*vp - s*vq
					v.Data[i*d+q] = s*vp + c*vq
				}
			}
		}
		if off == 0 {
			break
		}
	}

	// Extract singular values as column norms; sort descending.
	type col struct {
		norm float64
		idx  int
	}
	cols := make([]col, d)
	for j := 0; j < d; j++ {
		var s float64
		for i := 0; i < n; i++ {
			x := w.Data[i*d+j]
			s += x * x
		}
		cols[j] = col{math.Sqrt(s), j}
	}
	sort.Slice(cols, func(i, j int) bool { return cols[i].norm > cols[j].norm })

	// Drop numerically zero singular values to form the thin factorization.
	rank := 0
	tol := RankTol * cols[0].norm
	for rank < d && cols[rank].norm > tol && cols[rank].norm > 0 {
		rank++
	}
	if rank == 0 {
		rank = 1 // degenerate all-zero matrix: keep one column for shape sanity
	}

	u := NewDense(n, rank)
	vOut := NewDense(d, rank)
	sv := make([]float64, rank)
	for r := 0; r < rank; r++ {
		j := cols[r].idx
		sv[r] = cols[r].norm
		inv := 0.0
		if cols[r].norm > 0 {
			inv = 1 / cols[r].norm
		}
		for i := 0; i < n; i++ {
			u.Data[i*rank+r] = w.Data[i*d+j] * inv
		}
		for i := 0; i < d; i++ {
			vOut.Data[i*rank+r] = v.Data[i*d+j]
		}
	}
	return SVD{U: u, S: sv, V: vOut}
}

// ProcrustesWorkers returns the orthogonal matrix R that minimizes
// ||X - Y*R||_F subject to RᵀR = I (Schönemann 1966). X and Y must have
// the same shape. The solution is R = U*Vᵀ where YᵀX = U*diag(S)*Vᵀ.
// workers bounds the goroutines (workers <= 0 selects all CPUs); the
// rotation is identical for every worker count.
func ProcrustesWorkers(x, y *Dense, workers int) *Dense {
	if x.Rows != y.Rows || x.Cols != y.Cols {
		panic("matrix: Procrustes shape mismatch")
	}
	m := MulATBWorkers(y, x, workers) // YᵀX, d-by-d
	s := ComputeSVDWorkers(m, workers)
	return MulABTWorkers(s.U, s.V, workers)
}

// LeastSquares solves min_w ||A*w - b||₂ via the normal equations with
// Tikhonov-free Cholesky; A must have full column rank. For the small,
// well-conditioned systems anchor solves (d <= a few hundred), this is
// accurate and fast.
func LeastSquares(a *Dense, b []float64) []float64 {
	if a.Rows != len(b) {
		panic("matrix: LeastSquares dimension mismatch")
	}
	ata := MulATB(a, a)
	atb := MulVecT(a, b)
	return SolveSPD(ata, atb)
}

// SolveSPD solves the symmetric positive-definite system m*x = b using
// Cholesky factorization. It panics if m is not positive definite.
func SolveSPD(m *Dense, b []float64) []float64 {
	n := m.Rows
	if m.Cols != n || len(b) != n {
		panic("matrix: SolveSPD dimension mismatch")
	}
	// Cholesky: m = L*Lᵀ.
	l := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := m.At(i, j)
			for k := 0; k < j; k++ {
				sum -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if sum <= 0 {
					panic("matrix: SolveSPD matrix not positive definite")
				}
				l.Set(i, i, math.Sqrt(sum))
			} else {
				l.Set(i, j, sum/l.At(j, j))
			}
		}
	}
	// Forward solve L*y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= l.At(i, k) * y[k]
		}
		y[i] = sum / l.At(i, i)
	}
	// Back solve Lᵀ*x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := y[i]
		for k := i + 1; k < n; k++ {
			sum -= l.At(k, i) * x[k]
		}
		x[i] = sum / l.At(i, i)
	}
	return x
}
