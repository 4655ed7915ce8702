// Package floats provides the dense float64 vector kernels used throughout
// anchor: dot products, norms, scaled accumulation, and small statistical
// helpers. Every higher-level numeric package (matrix, embedding training,
// neural nets) is built on these primitives.
package floats

import "math"

// Dot returns the inner product of x and y. The slices must have equal length.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("floats: Dot length mismatch")
	}
	y = y[:len(x)] // bounds-check elimination in the loop below
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Axpy computes y += alpha * x in place. The slices must have equal
// length. The body is unrolled four-wide; each element is still updated
// by the single operation y[i] += alpha*x[i], so results are bitwise
// identical to the rolled loop.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("floats: Axpy length mismatch")
	}
	y = y[:len(x)] // bounds-check elimination in the loops below
	i := 0
	for ; i+4 <= len(x); i += 4 {
		x4 := x[i : i+4 : i+4]
		y4 := y[i : i+4 : i+4]
		y4[0] += alpha * x4[0]
		y4[1] += alpha * x4[1]
		y4[2] += alpha * x4[2]
		y4[3] += alpha * x4[3]
	}
	for ; i < len(x); i++ {
		y[i] += alpha * x[i]
	}
}

// Scale multiplies every element of x by alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Add computes x += y element-wise in place.
func Add(x, y []float64) {
	if len(x) != len(y) {
		panic("floats: Add length mismatch")
	}
	y = y[:len(x)] // bounds-check elimination in the loop below
	for i := range x {
		x[i] += y[i]
	}
}

// Sub computes x -= y element-wise in place.
func Sub(x, y []float64) {
	if len(x) != len(y) {
		panic("floats: Sub length mismatch")
	}
	y = y[:len(x)] // bounds-check elimination in the loop below
	for i := range x {
		x[i] -= y[i]
	}
}

// Norm returns the Euclidean (L2) norm of x.
func Norm(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// Normalize scales x to unit L2 norm in place and returns the original norm.
// A zero vector is left unchanged.
func Normalize(x []float64) float64 {
	n := Norm(x)
	if n > 0 {
		Scale(1/n, x)
	}
	return n
}

// CosineSim returns the cosine similarity of x and y, or 0 if either is zero.
func CosineSim(x, y []float64) float64 {
	nx, ny := Norm(x), Norm(y)
	if nx == 0 || ny == 0 {
		return 0
	}
	return Dot(x, y) / (nx * ny)
}

// CosineDist returns 1 - CosineSim(x, y).
func CosineDist(x, y []float64) float64 {
	return 1 - CosineSim(x, y)
}

// Sum returns the sum of the elements of x.
func Sum(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of x, or 0 for an empty slice.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	return Sum(x) / float64(len(x))
}

// Max returns the maximum element of x. It panics on an empty slice.
func Max(x []float64) float64 {
	if len(x) == 0 {
		panic("floats: Max of empty slice")
	}
	m := x[0]
	for _, v := range x[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// ArgMax returns the index of the maximum element of x (first one on ties).
// It panics on an empty slice.
func ArgMax(x []float64) int {
	if len(x) == 0 {
		panic("floats: ArgMax of empty slice")
	}
	best := 0
	for i, v := range x {
		if v > x[best] {
			best = i
		}
	}
	return best
}

// Fill sets every element of x to v.
func Fill(x []float64, v float64) {
	for i := range x {
		x[i] = v
	}
}

// QuantileSorted returns the q-quantile (0 <= q <= 1) of s, which the
// caller has already sorted ascending, using linear interpolation between
// order statistics. It performs no allocation, so repeated quantiles of
// the same slice can share one sort. It panics on an empty slice.
func QuantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		panic("floats: QuantileSorted of empty slice")
	}
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// LogSumExp returns log(sum(exp(x_i))) computed stably.
func LogSumExp(x []float64) float64 {
	if len(x) == 0 {
		return math.Inf(-1)
	}
	m := Max(x)
	if math.IsInf(m, -1) {
		return m
	}
	var s float64
	for _, v := range x {
		s += math.Exp(v - m)
	}
	return m + math.Log(s)
}

// Softmax writes the softmax of x into dst (which may alias x) and
// returns dst. The slices must have equal length.
func Softmax(dst, x []float64) []float64 {
	if len(dst) != len(x) {
		panic("floats: Softmax length mismatch")
	}
	m := Max(x)
	var s float64
	for i, v := range x {
		e := math.Exp(v - m)
		dst[i] = e
		s += e
	}
	for i := range dst {
		dst[i] /= s
	}
	return dst
}
