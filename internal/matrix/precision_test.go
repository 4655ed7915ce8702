package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// At returns the code at entry (i, k).
func (c *Codes) At(i, k int) uint8 {
	row := c.Data[i*c.RowBytes : (i+1)*c.RowBytes]
	off := k * c.Bits
	bi, sh := off>>3, uint(off&7)
	v := uint16(row[bi])
	if sh+uint(c.Bits) > 8 {
		v |= uint16(row[bi+1]) << 8
	}
	return uint8(v>>sh) & uint8(1<<uint(c.Bits)-1)
}

// randDense32Exact returns a float64 matrix whose every value is exactly
// float32-representable, plus its narrowed copy — the precondition under
// which Dense32 serving is lossless.
func randDense32Exact(rows, cols int, seed int64) (*Dense, *Dense32) {
	rng := rand.New(rand.NewSource(seed))
	wide := NewDense(rows, cols)
	for i := range wide.Data {
		wide.Data[i] = float64(float32(rng.NormFloat64()))
	}
	return wide, NewDense32From(wide)
}

// randLevels returns 2^bits strictly ascending float32-exact levels, the
// shape compress.Levels produces.
func randLevels(bits int, clip float64) []float64 {
	n := 1 << uint(bits)
	step := 2 * clip / float64(n-1)
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(float32(float64(i)*step - clip))
	}
	return out
}

// randCodes returns a code matrix with uniformly random codes.
func randCodes(rows, cols, bits int, seed int64) *Codes {
	rng := rand.New(rand.NewSource(seed))
	c := NewCodes(rows, cols, bits, randLevels(bits, 1.5))
	for i := 0; i < rows; i++ {
		for k := 0; k < cols; k++ {
			c.set(i, k, uint8(rng.Intn(1<<uint(bits))))
		}
	}
	return c
}

func sameBits(t *testing.T, got, want *Dense, label string) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d vs %dx%d", label, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d differs: %v vs %v", label, i, got.Data[i], want.Data[i])
		}
	}
}

// TestMulABTInto32GoldenBitEquality: the float32 kernel must be bitwise
// identical to the float64 kernel on widened inputs for every worker
// count and shape (including the 4x2 remainder edges).
func TestMulABTInto32GoldenBitEquality(t *testing.T) {
	shapes := []struct{ m, n, d int }{
		{1, 1, 1}, {3, 5, 7}, {4, 2, 8}, {5, 67, 16}, {9, 130, 33}, {70, 70, 24},
	}
	for _, sh := range shapes {
		aWide, _ := randDense32Exact(sh.m, sh.d, int64(sh.m*1000+sh.n))
		bWide, b32 := randDense32Exact(sh.n, sh.d, int64(sh.n*1000+sh.d))
		want := MulABTWorkers(aWide, bWide, 1)
		for _, workers := range []int{1, 2, 3, 8} {
			got := MulABTInto32(NewDense(sh.m, sh.n), aWide, b32, workers)
			sameBits(t, got, want, "MulABTInto32")
		}
	}
}

func TestCodesPackRoundTrip(t *testing.T) {
	for bits := 1; bits <= 8; bits++ {
		for _, cols := range []int{1, 3, 8, 13, 64} {
			c := randCodes(5, cols, bits, int64(bits*100+cols))
			rng := rand.New(rand.NewSource(int64(bits*100 + cols)))
			dst := make([]float64, cols)
			for i := 0; i < c.Rows; i++ {
				c.DequantizeRow(i, dst)
				for k := 0; k < cols; k++ {
					want := uint8(rng.Intn(1 << uint(bits)))
					if got := c.At(i, k); got != want {
						t.Fatalf("bits=%d cols=%d: At(%d,%d)=%d, want %d", bits, cols, i, k, got, want)
					}
					if dst[k] != c.Levels[c.At(i, k)] {
						t.Fatalf("bits=%d: DequantizeRow(%d)[%d] = %v, want level %v", bits, i, k, dst[k], c.Levels[c.At(i, k)])
					}
				}
			}
		}
	}
}

func TestNewCodesFromDenseRoundTrip(t *testing.T) {
	for _, bits := range []int{1, 3, 4, 8} {
		c := randCodes(7, 13, bits, int64(bits))
		dense := c.Dense()
		back, err := NewCodesFromDense(dense, c.Levels, bits)
		if err != nil {
			t.Fatalf("bits=%d: %v", bits, err)
		}
		for i := range c.Data {
			if back.Data[i] != c.Data[i] {
				t.Fatalf("bits=%d: packed byte %d differs", bits, i)
			}
		}
	}
}

func TestNewCodesFromDenseRejectsOffGrid(t *testing.T) {
	m := NewDense(2, 2)
	m.Data = []float64{-1, 1, 0.3, -1} // 0.3 is not a 1-bit level
	if _, err := NewCodesFromDense(m, []float64{-1, 1}, 1); err == nil {
		t.Fatal("expected error for off-grid value")
	}
}

// TestMulABTIntoLUTGoldenBitEquality: LUT scoring of packed codes must be
// bitwise identical to the float64 kernel against the dequantized rows,
// for every bit width, worker count, and shape. The shapes reach every
// loop of the kernel: each width 1..8; candidate-row counts leaving each
// remainder 0..3 of the four-row pass; dims that end rows mid-byte; and
// the 256-bit serving budget's packed cells (dim x bits 32x8, 64x4,
// 128x2) at the bench vocabulary's 800 rows.
func TestMulABTIntoLUTGoldenBitEquality(t *testing.T) {
	type cell struct{ bits, m, n, d int }
	var cells []cell
	for bits := 1; bits <= 8; bits++ {
		for _, sh := range []struct{ m, n, d int }{{1, 1, 1}, {2, 4, 7}, {3, 9, 13}, {6, 70, 32}, {4, 11, 13}} {
			cells = append(cells, cell{bits, sh.m, sh.n, sh.d})
		}
	}
	cells = append(cells, cell{8, 2, 800, 32}, cell{4, 2, 800, 64}, cell{2, 2, 800, 128})
	rng := rand.New(rand.NewSource(99))
	for _, c := range cells {
		codes := randCodes(c.n, c.d, c.bits, int64(c.bits*1000+c.n))
		q := NewDense(c.m, c.d)
		for i := range q.Data {
			q.Data[i] = rng.NormFloat64()
		}
		want := MulABTWorkers(q, codes.Dense(), 1)
		for _, workers := range []int{1, 2, 3, 8} {
			got := MulABTIntoLUT(NewDense(c.m, c.n), q, codes, workers)
			sameBits(t, got, want, fmt.Sprintf("MulABTIntoLUT bits=%d %dx%dx%d workers=%d", c.bits, c.m, c.n, c.d, workers))
		}
	}
}
