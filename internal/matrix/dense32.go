package matrix

// Float32 serving representation. Dense32 stores a row-major float32
// matrix for artifacts whose values are exactly float32-representable
// (quantized levels are rounded to float32 by construction), halving the
// memory traffic of the bandwidth-bound read path. Arithmetic stays in
// float64: query rows are float64, every product widens its float32
// operand first, and every output element keeps one float64 accumulator
// in ascending k, so MulABTInto32 is bitwise identical to MulABTInto on a
// widened copy of the float32 rows — the storage narrows, the answers do
// not.

import (
	"fmt"

	"anchor/internal/parallel"
)

// Dense32 is a dense row-major float32 matrix.
type Dense32 struct {
	Rows, Cols int
	Data       []float32
}

// NewDense32 returns a zeroed rows-by-cols float32 matrix.
func NewDense32(rows, cols int) *Dense32 {
	return &Dense32{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// NewDense32From narrows m into a float32 matrix. Callers must ensure
// every value of m is exactly float32-representable (see Float32Exact)
// when bitwise fidelity matters; narrowing itself is a plain float64 →
// float32 conversion either way.
func NewDense32From(m *Dense) *Dense32 {
	out := NewDense32(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = float32(v)
	}
	return out
}

// Float32Exact reports whether every value survives a float64 → float32 →
// float64 round trip exactly, i.e. whether a Dense32 copy is lossless.
func Float32Exact(data []float64) bool {
	for _, v := range data {
		if v != float64(float32(v)) {
			return false
		}
	}
	return true
}

// Row returns row i sharing the underlying storage.
func (m *Dense32) Row(i int) []float32 {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// WidenRow writes row i widened to float64 into dst (length Cols).
func (m *Dense32) WidenRow(i int, dst []float64) {
	row := m.Row(i)
	for k, v := range row {
		dst[k] = float64(v)
	}
}

// MulABTInto32 computes a*bᵀ into dst for float64 query rows a against
// float32 candidate rows b, and returns dst, overwriting its previous
// contents. dst must be a.Rows-by-b.Rows and must not alias a. It mirrors
// MulABTInto's cache-blocked, 4x2-interleaved micro-kernel exactly — same
// b-row tiling, same accumulator chains, one float64 accumulator per
// output element in ascending k — with each product widening its float32
// operand to float64 first. Loading half the bytes per candidate row is
// the entire difference, so outputs are bitwise identical to
// MulABTInto(dst, a, b widened) for every worker count and batch shape.
func MulABTInto32(dst, a *Dense, b *Dense32, workers int) *Dense {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("matrix: MulABT32 col mismatch %d vs %d", a.Cols, b.Cols))
	}
	checkDst(dst, a.Rows, b.Rows)
	runBanded(a.Rows, a.Rows*a.Cols*b.Rows, workers, func(band parallel.Range) {
		for j0 := 0; j0 < b.Rows; j0 += abtJBlock {
			j1 := j0 + abtJBlock
			if j1 > b.Rows {
				j1 = b.Rows
			}
			i := band.Lo
			for ; i+4 <= band.Hi; i += 4 {
				a0, a1, a2, a3 := a.Row(i), a.Row(i+1), a.Row(i+2), a.Row(i+3)
				o0, o1, o2, o3 := dst.Row(i), dst.Row(i+1), dst.Row(i+2), dst.Row(i+3)
				j := j0
				for ; j+2 <= j1; j += 2 {
					b0 := b.Row(j)
					b1 := b.Row(j + 1)[:len(b0):len(b0)]
					x0, x1, x2, x3 := a0[:len(b0):len(b0)], a1[:len(b0):len(b0)], a2[:len(b0):len(b0)], a3[:len(b0):len(b0)]
					var s00, s01, s10, s11, s20, s21, s30, s31 float64
					for k, bv := range b0 {
						bv0, bv1 := float64(bv), float64(b1[k])
						v0, v1, v2, v3 := x0[k], x1[k], x2[k], x3[k]
						s00 += v0 * bv0
						s01 += v0 * bv1
						s10 += v1 * bv0
						s11 += v1 * bv1
						s20 += v2 * bv0
						s21 += v2 * bv1
						s30 += v3 * bv0
						s31 += v3 * bv1
					}
					o0[j], o0[j+1] = s00, s01
					o1[j], o1[j+1] = s10, s11
					o2[j], o2[j+1] = s20, s21
					o3[j], o3[j+1] = s30, s31
				}
				for ; j < j1; j++ {
					brow := b.Row(j)
					var s0, s1, s2, s3 float64
					for k, bv := range brow {
						bv0 := float64(bv)
						s0 += a0[k] * bv0
						s1 += a1[k] * bv0
						s2 += a2[k] * bv0
						s3 += a3[k] * bv0
					}
					o0[j], o1[j], o2[j], o3[j] = s0, s1, s2, s3
				}
			}
			for ; i < band.Hi; i++ {
				arow := a.Row(i)
				orow := dst.Row(i)
				j := j0
				for ; j+4 <= j1; j += 4 {
					b0, b1, b2, b3 := b.Row(j), b.Row(j+1), b.Row(j+2), b.Row(j+3)
					var s0, s1, s2, s3 float64
					for k, av := range arow {
						s0 += av * float64(b0[k])
						s1 += av * float64(b1[k])
						s2 += av * float64(b2[k])
						s3 += av * float64(b3[k])
					}
					orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
				}
				for ; j < j1; j++ {
					brow := b.Row(j)
					var s float64
					for k, bv := range brow {
						s += arow[k] * float64(bv)
					}
					orow[j] = s
				}
			}
		}
	})
	return dst
}
