// Package stats provides the statistical tooling used by anchor's
// evaluation: tie-aware rank correlation (Spearman), Pearson correlation,
// and the linear-log trend fits the paper uses to derive its
// stability–memory rule of thumb (Section 3.3 / Appendix C.4).
package stats

import (
	"math"
	"sort"

	"anchor/internal/floats"
	"anchor/internal/matrix"
)

// Ranks returns the 1-based fractional ranks of x; tied values receive the
// average of the ranks they span, matching the convention used by
// scipy.stats.spearmanr.
func Ranks(x []float64) []float64 {
	n := len(x)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return x[idx[a]] < x[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && x[idx[j+1]] == x[idx[i]] {
			j++
		}
		// Average rank for the tie group [i, j].
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}

// Pearson returns the Pearson correlation coefficient of x and y.
// It returns 0 when either input has zero variance.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("stats: Pearson length mismatch")
	}
	n := float64(len(x))
	if n == 0 {
		return 0
	}
	mx, my := floats.Mean(x), floats.Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx := x[i] - mx
		dy := y[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Spearman returns the tie-aware Spearman rank correlation of x and y,
// i.e. the Pearson correlation of their fractional ranks.
func Spearman(x, y []float64) float64 {
	return Pearson(Ranks(x), Ranks(y))
}

// LinearLogPoint is one observation for the stability–memory trend fit:
// a task identifier, the memory (or dimension/precision) value on the log
// axis, and the observed downstream instability in percent.
type LinearLogPoint struct {
	Task string
	X    float64 // e.g. bits/word; must be > 0
	Y    float64 // downstream disagreement, percent
}

// LinearLogFit is the fitted model DI_t ≈ Intercepts[t] - Slope*log2(x),
// mirroring Appendix C.4: a shared slope with one intercept per task.
type LinearLogFit struct {
	Slope      float64 // positive slope means instability falls as memory grows
	Intercepts map[string]float64
}

// FitLinearLog fits the paper's linear-log trend to the given points:
// a single shared slope on log2(x) and an independent intercept per task
// (the design matrix is [log2 x | one-hot(task)], exactly as described in
// Appendix C.4). It panics if fewer than two points are supplied.
func FitLinearLog(points []LinearLogPoint) LinearLogFit {
	if len(points) < 2 {
		panic("stats: FitLinearLog needs >= 2 points")
	}
	tasks := []string{}
	taskIdx := map[string]int{}
	for _, p := range points {
		if _, ok := taskIdx[p.Task]; !ok {
			taskIdx[p.Task] = len(tasks)
			tasks = append(tasks, p.Task)
		}
	}
	cols := 1 + len(tasks)
	a := matrix.NewDense(len(points), cols)
	y := make([]float64, len(points))
	for i, p := range points {
		if p.X <= 0 {
			panic("stats: FitLinearLog requires positive x")
		}
		a.Set(i, 0, -math.Log2(p.X)) // negate so Slope > 0 means "more memory, less instability"
		a.Set(i, 1+taskIdx[p.Task], 1)
		y[i] = p.Y
	}
	w := matrix.LeastSquares(a, y)
	fit := LinearLogFit{Slope: w[0], Intercepts: make(map[string]float64, len(tasks))}
	for t, j := range taskIdx {
		fit.Intercepts[t] = w[1+j]
	}
	return fit
}
