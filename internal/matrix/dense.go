// Package matrix implements the dense linear algebra used by anchor:
// a row-major float64 matrix, cache-blocked goroutine-parallel matrix
// products (bitwise identical for every worker count — see kernels.go),
// SVD via Gram eigendecomposition for tall-thin inputs with a one-sided
// Jacobi fallback, least squares, and the orthogonal Procrustes solution.
// All operations are written against the flat backing slice for
// cache-friendly access.
package matrix

import (
	"fmt"
	"math/rand"

	"anchor/internal/floats"
)

// Dense is a row-major dense matrix of float64 values.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewDense returns a zeroed r-by-c matrix.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic("matrix: negative dimension")
	}
	return &Dense{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// NewDenseData wraps data as an r-by-c matrix without copying.
// len(data) must equal r*c.
func NewDenseData(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("matrix: data length %d != %d*%d", len(data), r, c))
	}
	return &Dense{Rows: r, Cols: c, Data: data}
}

// NewDenseRand returns an r-by-c matrix with entries drawn uniformly from
// [-scale, scale] using rng.
func NewDenseRand(r, c int, scale float64, rng *rand.Rand) *Dense {
	m := NewDense(r, c)
	for i := range m.Data {
		m.Data[i] = (2*rng.Float64() - 1) * scale
	}
	return m
}

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns v to the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice sharing the matrix's backing storage.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// T returns a newly allocated transpose of m.
func (m *Dense) T() *Dense {
	t := NewDense(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

// Add computes m += o element-wise in place and returns m.
func (m *Dense) Add(o *Dense) *Dense {
	m.mustSameShape(o)
	floats.Add(m.Data, o.Data)
	return m
}

// Sub computes m -= o element-wise in place and returns m.
func (m *Dense) Sub(o *Dense) *Dense {
	m.mustSameShape(o)
	floats.Sub(m.Data, o.Data)
	return m
}

func (m *Dense) mustSameShape(o *Dense) {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic(fmt.Sprintf("matrix: shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
}

// FrobNorm returns the Frobenius norm of m.
func (m *Dense) FrobNorm() float64 { return floats.Norm(m.Data) }

// MulATB returns aᵀ*b without materializing aᵀ, computed by the blocked
// parallel kernel on all CPUs.
func MulATB(a, b *Dense) *Dense { return MulATBWorkers(a, b, 0) }

// MulVec returns the matrix-vector product m*x.
func MulVec(m *Dense, x []float64) []float64 {
	if m.Cols != len(x) {
		panic("matrix: MulVec dimension mismatch")
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = floats.Dot(m.Row(i), x)
	}
	return out
}

// MulVecT returns mᵀ*x.
func MulVecT(m *Dense, x []float64) []float64 {
	if m.Rows != len(x) {
		panic("matrix: MulVecT dimension mismatch")
	}
	out := make([]float64, m.Cols)
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		floats.Axpy(xi, m.Row(i), out)
	}
	return out
}

// Identity returns the n-by-n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}
