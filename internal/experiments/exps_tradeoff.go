package experiments

import (
	"context"
	"fmt"
	"math"

	"anchor/internal/stats"
)

// Fig1 reproduces Figure 1: downstream instability of sentiment (SST-2)
// and NER (CoNLL-2003) as a function of dimension (at full precision) and
// of precision (at the mid dimension), per embedding algorithm.
func Fig1(ctx context.Context, r *Runner) ([]*Table, error) {
	sentGrid, err := r.SentimentGrid(ctx)
	if err != nil {
		return nil, err
	}
	nerGrid, err := r.NERGrid(ctx)
	if err != nil {
		return nil, err
	}
	sent, nerCells := AverageOverSeeds(sentGrid), AverageOverSeeds(nerGrid)

	dimT := &Table{
		ID: "fig1", Title: "Instability vs dimension (32-bit precision), % disagreement",
		Columns: []string{"task", "algo", "dim", "memory(bits/word)", "%disagreement"},
	}
	for _, c := range FilterCells(sent, func(c Cell) bool { return c.Prec == 32 }) {
		if di, ok := c.DI["sst2"]; ok {
			dimT.AddRow("sst2", c.Algo, c.Dim, c.MemoryBits(), di)
		}
	}
	for _, c := range FilterCells(nerCells, func(c Cell) bool { return c.Prec == 32 }) {
		if di, ok := c.DI["conll2003"]; ok {
			dimT.AddRow("conll2003", c.Algo, c.Dim, c.MemoryBits(), di)
		}
	}

	mid := r.Cfg.midDim()
	precT := &Table{
		ID: "fig1", Title: fmt.Sprintf("Instability vs precision (dim %d), %% disagreement", mid),
		Columns: []string{"task", "algo", "precision", "memory(bits/word)", "%disagreement"},
	}
	for _, c := range FilterCells(sent, func(c Cell) bool { return c.Dim == mid }) {
		if di, ok := c.DI["sst2"]; ok {
			precT.AddRow("sst2", c.Algo, c.Prec, c.MemoryBits(), di)
		}
	}
	nerMid := nerMidDim(r)
	for _, c := range FilterCells(nerCells, func(c Cell) bool { return c.Dim == nerMid }) {
		if di, ok := c.DI["conll2003"]; ok {
			precT.AddRow("conll2003", c.Algo, c.Prec, c.MemoryBits(), di)
		}
	}
	return []*Table{dimT, precT}, nil
}

func nerMidDim(r *Runner) int {
	return r.Cfg.NERDims[(len(r.Cfg.NERDims)-1)/2]
}

// Fig2 reproduces Figure 2: NER instability for every dimension-precision
// combination against memory, with the fitted linear-log trend.
func Fig2(ctx context.Context, r *Runner) ([]*Table, error) {
	grid, err := r.NERGrid(ctx)
	if err != nil {
		return nil, err
	}
	cells := AverageOverSeeds(grid)
	t := &Table{
		ID: "fig2", Title: "NER (CoNLL-2003) instability vs memory, all dim x prec",
		Columns: []string{"algo", "dim", "prec", "memory(bits/word)", "%disagreement"},
	}
	var pts []stats.LinearLogPoint
	for _, c := range cells {
		di, ok := c.DI["conll2003"]
		if !ok {
			continue
		}
		t.AddRow(c.Algo, c.Dim, c.Prec, c.MemoryBits(), di)
		pts = append(pts, stats.LinearLogPoint{Task: "conll-" + c.Algo, X: float64(c.MemoryBits()), Y: di})
	}
	fitT := &Table{
		ID: "fig2", Title: "Linear-log fit DI = C - slope*log2(bits/word)",
		Columns: []string{"series", "slope(% per 2x memory)"},
	}
	if len(pts) >= 2 {
		fit := stats.FitLinearLog(pts)
		fitT.AddRow("conll2003 (all algos)", fit.Slope)
	}
	return []*Table{t, fitT}, nil
}

// RuleOfThumb reproduces the Section 3.3 analysis: a joint linear-log fit
// of instability against memory across the sentiment tasks and NER (the
// paper reports a ~1.3% absolute drop per memory doubling), plus the
// independent dimension-only and precision-only fits (paper: 1.2% and
// 1.4%), restricted to the low-memory regime where the trend is linear.
func RuleOfThumb(ctx context.Context, r *Runner) ([]*Table, error) {
	sent, err := r.SentimentGrid(ctx)
	if err != nil {
		return nil, err
	}
	nerCells, err := r.NERGrid(ctx)
	if err != nil {
		return nil, err
	}
	memCut := float64(r.Cfg.maxDim() * 32 / 8) // below this memory the trend is linear

	var memPts, dimPts, precPts []stats.LinearLogPoint
	add := func(task string, c Cell, di float64) {
		if float64(c.MemoryBits()) <= memCut {
			memPts = append(memPts, stats.LinearLogPoint{
				Task: task + "/" + c.Algo, X: float64(c.MemoryBits()), Y: di,
			})
		}
		dimPts = append(dimPts, stats.LinearLogPoint{
			Task: fmt.Sprintf("%s/%s/b%d", task, c.Algo, c.Prec), X: float64(c.Dim), Y: di,
		})
		precPts = append(precPts, stats.LinearLogPoint{
			Task: fmt.Sprintf("%s/%s/d%d", task, c.Algo, c.Dim), X: float64(c.Prec), Y: di,
		})
	}
	for _, c := range sent {
		for task, di := range c.DI {
			add(task, c, di)
		}
	}
	for _, c := range nerCells {
		if di, ok := c.DI["conll2003"]; ok {
			add("conll2003", c, di)
		}
	}

	t := &Table{
		ID: "rule", Title: "Stability-memory rule of thumb (paper: memory 1.3, dim 1.2, precision 1.4)",
		Columns: []string{"axis", "slope (% abs. decrease per 2x)"},
	}
	t.AddRow("memory (bits/word)", stats.FitLinearLog(memPts).Slope)
	t.AddRow("dimension", stats.FitLinearLog(dimPts).Slope)
	t.AddRow("precision", stats.FitLinearLog(precPts).Slope)
	return []*Table{t}, nil
}

// Fig4 reproduces Appendix Figure 4: the dimension effect on the extra
// sentiment tasks at full and 1-bit precision.
func Fig4(ctx context.Context, r *Runner) ([]*Table, error) {
	grid, err := r.SentimentGrid(ctx)
	if err != nil {
		return nil, err
	}
	cells := AverageOverSeeds(grid)
	t := &Table{
		ID: "fig4", Title: "Sentiment instability vs dimension at 32-bit and 1-bit",
		Columns: []string{"task", "algo", "precision", "dim", "%disagreement"},
	}
	for _, c := range cells {
		if c.Prec != 32 && c.Prec != 1 {
			continue
		}
		for _, task := range r.Cfg.SentimentTasks {
			if di, ok := c.DI[task]; ok {
				t.AddRow(task, c.Algo, c.Prec, c.Dim, di)
			}
		}
	}
	return []*Table{t}, nil
}

// Fig5 reproduces Appendix Figure 5: the precision effect on the
// sentiment tasks at the mid dimension.
func Fig5(ctx context.Context, r *Runner) ([]*Table, error) {
	grid, err := r.SentimentGrid(ctx)
	if err != nil {
		return nil, err
	}
	mid := r.Cfg.midDim()
	cells := AverageOverSeeds(grid)
	t := &Table{
		ID: "fig5", Title: fmt.Sprintf("Sentiment instability vs precision (dim %d)", mid),
		Columns: []string{"task", "algo", "precision", "%disagreement"},
	}
	for _, c := range FilterCells(cells, func(c Cell) bool { return c.Dim == mid }) {
		for _, task := range r.Cfg.SentimentTasks {
			if di, ok := c.DI[task]; ok {
				t.AddRow(task, c.Algo, c.Prec, di)
			}
		}
	}
	return []*Table{t}, nil
}

// Fig6 reproduces Appendix Figure 6: instability vs memory for all four
// sentiment tasks and every dimension-precision combination.
func Fig6(ctx context.Context, r *Runner) ([]*Table, error) {
	grid, err := r.SentimentGrid(ctx)
	if err != nil {
		return nil, err
	}
	cells := AverageOverSeeds(grid)
	t := &Table{
		ID: "fig6", Title: "Sentiment instability vs memory, all dim x prec",
		Columns: []string{"task", "algo", "dim", "prec", "memory(bits/word)", "%disagreement"},
	}
	for _, c := range cells {
		for _, task := range r.Cfg.SentimentTasks {
			if di, ok := c.DI[task]; ok {
				t.AddRow(task, c.Algo, c.Dim, c.Prec, c.MemoryBits(), di)
			}
		}
	}
	return []*Table{t}, nil
}

// Fig7 reproduces Appendix Figure 7: quality-memory and quality-stability
// tradeoffs for the sentiment tasks.
func Fig7(ctx context.Context, r *Runner) ([]*Table, error) {
	grid, err := r.SentimentGrid(ctx)
	if err != nil {
		return nil, err
	}
	cells := AverageOverSeeds(grid)
	t := &Table{
		ID: "fig7", Title: "Sentiment quality vs memory and vs instability",
		Columns: []string{"task", "algo", "dim", "prec", "memory(bits/word)", "test accuracy", "%disagreement"},
	}
	for _, c := range cells {
		for _, task := range r.Cfg.SentimentTasks {
			if di, ok := c.DI[task]; ok {
				t.AddRow(task, c.Algo, c.Dim, c.Prec, c.MemoryBits(), c.Acc[task], di)
			}
		}
	}
	return []*Table{t}, nil
}

// Fig8 reproduces Appendix Figure 8: NER quality tradeoffs.
func Fig8(ctx context.Context, r *Runner) ([]*Table, error) {
	grid, err := r.NERGrid(ctx)
	if err != nil {
		return nil, err
	}
	cells := AverageOverSeeds(grid)
	t := &Table{
		ID: "fig8", Title: "NER quality (entity token F1) vs memory and vs instability",
		Columns: []string{"algo", "dim", "prec", "memory(bits/word)", "F1", "%disagreement"},
	}
	for _, c := range cells {
		if di, ok := c.DI["conll2003"]; ok {
			t.AddRow(c.Algo, c.Dim, c.Prec, c.MemoryBits(), c.Acc["conll2003"], di)
		}
	}
	return []*Table{t}, nil
}

// MonotonicityReport summarizes, for every (task, algo), the Spearman
// correlation between memory and instability — the quantitative check that
// "more memory, more stable" holds (used by tests and EXPERIMENTS.md).
func MonotonicityReport(ctx context.Context, r *Runner) ([]*Table, error) {
	grid, err := r.SentimentGrid(ctx)
	if err != nil {
		return nil, err
	}
	cells := AverageOverSeeds(grid)
	t := &Table{
		ID: "monotone", Title: "Spearman(memory, instability) per task/algo (want strongly negative)",
		Columns: []string{"task", "algo", "spearman"},
	}
	for _, algo := range r.Cfg.Algorithms {
		for _, task := range r.Cfg.SentimentTasks {
			var mem, di []float64
			for _, c := range cells {
				if c.Algo != algo {
					continue
				}
				if v, ok := c.DI[task]; ok {
					mem = append(mem, math.Log2(float64(c.MemoryBits())))
					di = append(di, v)
				}
			}
			if len(mem) >= 3 {
				t.AddRow(task, algo, stats.Spearman(mem, di))
			}
		}
	}
	return []*Table{t}, nil
}
