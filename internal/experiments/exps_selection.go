package experiments

import (
	"context"
	"fmt"

	"anchor/internal/core"
	"anchor/internal/selection"
	"anchor/internal/stats"
)

// taskCells collects, for one (task, algo, seed), the candidate list the
// selection experiments operate on: one candidate per dim-prec combination.
func taskCells(cells []Cell, task, algo string, seed int64) []selection.Candidate {
	var out []selection.Candidate
	for _, c := range cells {
		if c.Algo != algo || c.Seed != seed {
			continue
		}
		di, ok := c.DI[task]
		if !ok {
			continue
		}
		out = append(out, selection.Candidate{
			Dim: c.Dim, Precision: c.Prec, Measures: c.Measures, TrueDI: di,
		})
	}
	return out
}

// gridFor returns the grid holding the given task's instability values.
func (r *Runner) gridFor(ctx context.Context, task string) ([]Cell, error) {
	if task == "conll2003" {
		return r.NERGrid(ctx)
	}
	return r.SentimentGrid(ctx)
}

// seedsFor returns the seeds evaluated for the task's grid.
func (r *Runner) seedsFor(task string) []int64 {
	if task == "conll2003" {
		return r.Cfg.NERSeeds
	}
	return r.Cfg.Seeds
}

// table1Tasks returns the headline tasks of Tables 1-3.
func (r *Runner) table1Tasks() []string {
	tasks := []string{}
	for _, t := range r.Cfg.SentimentTasks {
		if t == "sst2" || t == "subj" {
			tasks = append(tasks, t)
		}
	}
	if r.Cfg.NEREnabled {
		tasks = append(tasks, "conll2003")
	}
	return tasks
}

// table9Tasks returns the appendix tasks (MR, MPQA).
func (r *Runner) table9Tasks() []string {
	tasks := []string{}
	for _, t := range r.Cfg.SentimentTasks {
		if t == "mr" || t == "mpqa" {
			tasks = append(tasks, t)
		}
	}
	return tasks
}

// spearmanTable builds a Table 1-style table for the given tasks: the
// Spearman correlation between each measure and the downstream
// disagreement, averaged over seeds.
func (r *Runner) spearmanTable(ctx context.Context, id string, tasks []string) (*Table, error) {
	t := &Table{
		ID: id, Title: "Spearman correlation: measure vs downstream disagreement",
		Columns: []string{"measure", "task", "algo", "spearman"},
	}
	for _, m := range core.MeasureNames() {
		for _, task := range tasks {
			cells, err := r.gridFor(ctx, task)
			if err != nil {
				return nil, err
			}
			for _, algo := range r.Cfg.Algorithms {
				var sum float64
				n := 0
				for _, seed := range r.seedsFor(task) {
					cands := taskCells(cells, task, algo, seed)
					if len(cands) < 3 {
						continue
					}
					var mv, di []float64
					for _, c := range cands {
						mv = append(mv, c.Measures[m])
						di = append(di, c.TrueDI)
					}
					sum += stats.Spearman(mv, di)
					n++
				}
				if n > 0 {
					t.AddRow(m, task, algo, sum/float64(n))
				}
			}
		}
	}
	return t, nil
}

// Table1 reproduces Table 1 (Spearman correlations on SST-2, Subj,
// CoNLL-2003).
func Table1(ctx context.Context, r *Runner) ([]*Table, error) {
	return oneTable(r.spearmanTable(ctx, "table1", r.table1Tasks()))
}

// selectionErrorTable builds a Table 2-style table.
func (r *Runner) selectionErrorTable(ctx context.Context, id string, tasks []string, worstCase bool) (*Table, error) {
	title := "Pairwise dim-prec selection error"
	if worstCase {
		title = "Worst-case pairwise selection regret (abs % instability)"
	}
	t := &Table{ID: id, Title: title, Columns: []string{"measure", "task", "algo", "value"}}
	for _, m := range core.MeasureNames() {
		for _, task := range tasks {
			cells, err := r.gridFor(ctx, task)
			if err != nil {
				return nil, err
			}
			for _, algo := range r.Cfg.Algorithms {
				var sum float64
				n := 0
				for _, seed := range r.seedsFor(task) {
					cands := taskCells(cells, task, algo, seed)
					if len(cands) < 2 {
						continue
					}
					if worstCase {
						sum += selection.PairwiseWorstCase(cands, m)
					} else {
						sum += selection.PairwiseError(cands, m)
					}
					n++
				}
				if n > 0 {
					t.AddRow(m, task, algo, sum/float64(n))
				}
			}
		}
	}
	return t, nil
}

// Table2 reproduces Table 2 (pairwise selection error).
func Table2(ctx context.Context, r *Runner) ([]*Table, error) {
	return oneTable(r.selectionErrorTable(ctx, "table2", r.table1Tasks(), false))
}

// budgetTable builds a Table 3-style table, optionally the worst-case
// variant (Table 11), including the high/low precision baselines.
func (r *Runner) budgetTable(ctx context.Context, id string, tasks []string, worstCase bool) (*Table, error) {
	title := "Avg |DI - oracle| under fixed memory budgets (abs %)"
	if worstCase {
		title = "Worst-case |DI - oracle| under fixed memory budgets (abs %)"
	}
	t := &Table{ID: id, Title: title, Columns: []string{"selector", "task", "algo", "value"}}

	selectors := []struct {
		name string
		sel  selection.Selector
	}{}
	for _, m := range core.MeasureNames() {
		selectors = append(selectors, struct {
			name string
			sel  selection.Selector
		}{m, selection.MeasureSelector(m)})
	}
	selectors = append(selectors,
		struct {
			name string
			sel  selection.Selector
		}{"high-precision", selection.HighPrecision},
		struct {
			name string
			sel  selection.Selector
		}{"low-precision", selection.LowPrecision},
	)

	for _, s := range selectors {
		for _, task := range tasks {
			cells, err := r.gridFor(ctx, task)
			if err != nil {
				return nil, err
			}
			for _, algo := range r.Cfg.Algorithms {
				var sum float64
				n := 0
				for _, seed := range r.seedsFor(task) {
					cands := taskCells(cells, task, algo, seed)
					if len(cands) < 2 {
						continue
					}
					mean, worst := selection.OracleDistance(cands, s.sel)
					if worstCase {
						sum += worst
					} else {
						sum += mean
					}
					n++
				}
				if n > 0 {
					t.AddRow(s.name, task, algo, sum/float64(n))
				}
			}
		}
	}
	return t, nil
}

// Table3 reproduces Table 3 (distance to oracle under memory budgets).
func Table3(ctx context.Context, r *Runner) ([]*Table, error) {
	return oneTable(r.budgetTable(ctx, "table3", r.table1Tasks(), false))
}

// Table9 reproduces Appendix Table 9: Tables 1-3 on MR and MPQA.
func Table9(ctx context.Context, r *Runner) ([]*Table, error) {
	tasks := r.table9Tasks()
	if len(tasks) == 0 {
		t := &Table{ID: "table9", Title: "MR/MPQA not in configured task set", Columns: []string{"note"}}
		t.AddRow("enable mr/mpqa in Config.SentimentTasks to reproduce Table 9")
		return []*Table{t}, nil
	}
	a, err := r.spearmanTable(ctx, "table9", tasks)
	if err != nil {
		return nil, err
	}
	b, err := r.selectionErrorTable(ctx, "table9", tasks, false)
	if err != nil {
		return nil, err
	}
	c, err := r.budgetTable(ctx, "table9", tasks, false)
	if err != nil {
		return nil, err
	}
	return []*Table{a, b, c}, nil
}

// Table10 reproduces Appendix Table 10 (worst-case pairwise regret).
func Table10(ctx context.Context, r *Runner) ([]*Table, error) {
	return oneTable(r.selectionErrorTable(ctx, "table10", r.table1Tasks(), true))
}

// Table11 reproduces Appendix Table 11 (worst-case budget distance).
func Table11(ctx context.Context, r *Runner) ([]*Table, error) {
	return oneTable(r.budgetTable(ctx, "table11", r.table1Tasks(), true))
}

// oneTable wraps a single-table artifact's result.
func oneTable(t *Table, err error) ([]*Table, error) {
	if err != nil {
		return nil, err
	}
	return []*Table{t}, nil
}

// Table8 reproduces Appendix Table 8: hyperparameter selection for the
// EIS alpha and the k-NN k by average Spearman correlation over tasks.
func Table8(ctx context.Context, r *Runner) ([]*Table, error) {
	cells, err := r.SentimentGrid(ctx)
	if err != nil {
		return nil, err
	}
	ids := r.TopWordIDs()

	avgCorr := func(measure core.Measure) (float64, error) {
		var sum float64
		n := 0
		for _, algo := range r.Cfg.Algorithms {
			for _, task := range r.Cfg.SentimentTasks {
				for _, seed := range r.Cfg.Seeds {
					var mv, di []float64
					for _, c := range cells {
						if c.Algo != algo || c.Seed != seed {
							continue
						}
						v, ok := c.DI[task]
						if !ok {
							continue
						}
						q17, q18, err := r.QuantizedPair(ctx, c.Algo, c.Dim, c.Prec, c.Seed)
						if err != nil {
							return 0, err
						}
						mv = append(mv, measure.Distance(q17.SubRows(ids), q18.SubRows(ids)))
						di = append(di, v)
					}
					if len(mv) >= 3 {
						sum += stats.Spearman(mv, di)
						n++
					}
				}
			}
		}
		if n == 0 {
			return 0, nil
		}
		return sum / float64(n), nil
	}

	alphaT := &Table{
		ID: "table8", Title: "Average Spearman vs alpha (eigenspace instability)",
		Columns: []string{"alpha", "avg spearman"},
	}
	for _, alpha := range []float64{0, 1, 2, 3, 4} {
		var total, n float64
		for _, algo := range r.Cfg.Algorithms {
			for _, seed := range r.Cfg.Seeds {
				e, et, err := r.Anchors(ctx, algo, seed)
				if err != nil {
					return nil, err
				}
				m := &core.EigenspaceInstability{E: e, ETilde: et, Alpha: alpha, Workers: r.Cfg.Workers}
				// Correlate within this algo/seed only.
				for _, task := range r.Cfg.SentimentTasks {
					var mv, di []float64
					for _, c := range cells {
						if c.Algo != algo || c.Seed != seed {
							continue
						}
						v, ok := c.DI[task]
						if !ok {
							continue
						}
						q17, q18, err := r.QuantizedPair(ctx, c.Algo, c.Dim, c.Prec, c.Seed)
						if err != nil {
							return nil, err
						}
						mv = append(mv, m.Distance(q17.SubRows(ids), q18.SubRows(ids)))
						di = append(di, v)
					}
					if len(mv) >= 3 {
						total += stats.Spearman(mv, di)
						n++
					}
				}
			}
		}
		if n > 0 {
			alphaT.AddRow(fmt.Sprintf("%.0f", alpha), total/n)
		}
	}

	kT := &Table{
		ID: "table8", Title: "Average Spearman vs k (k-NN measure)",
		Columns: []string{"k", "avg spearman"},
	}
	for _, k := range []int{1, 2, 5, 10, 50} {
		m := &core.KNN{K: k, Queries: r.Cfg.KNNQueries, Seed: 7, Workers: r.Cfg.Workers}
		corr, err := avgCorr(m)
		if err != nil {
			return nil, err
		}
		kT.AddRow(fmt.Sprintf("%d", k), corr)
	}
	return []*Table{alphaT, kT}, nil
}

// Fig9 reproduces Appendix Figure 9: per-measure series of (measure value,
// NER instability) pairs with the Spearman correlation, the scatter-plot
// data.
func Fig9(ctx context.Context, r *Runner) ([]*Table, error) {
	cells, err := r.NERGrid(ctx)
	if err != nil {
		return nil, err
	}
	var out []*Table
	for _, m := range core.MeasureNames() {
		t := &Table{
			ID: "fig9", Title: "NER instability vs " + m,
			Columns: []string{"algo", "dim", "prec", "measure value", "%disagreement"},
		}
		for _, algo := range r.Cfg.Algorithms {
			var mv, di []float64
			for _, c := range cells {
				if c.Algo != algo {
					continue
				}
				v, ok := c.DI["conll2003"]
				if !ok {
					continue
				}
				t.AddRow(c.Algo, c.Dim, c.Prec, c.Measures[m], v)
				mv = append(mv, c.Measures[m])
				di = append(di, v)
			}
			if len(mv) >= 3 {
				t.AddRow(algo, "-", "-", "spearman", stats.Spearman(mv, di))
			}
		}
		out = append(out, t)
	}
	return out, nil
}
