package experiments

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"anchor/internal/parallel"
)

// Cell is one fully evaluated grid point: an (algorithm, dimension,
// precision, seed) configuration with every embedding distance measure
// and the downstream instability (and quality) of every enabled task.
type Cell struct {
	Algo string
	Dim  int
	Prec int
	Seed int64

	// Measures maps measure name to distance between the quantized pair.
	Measures map[string]float64
	// DI maps task name to downstream prediction disagreement (percent).
	DI map[string]float64
	// Acc maps task name to the Wiki'17 model's test quality (accuracy
	// for sentiment, entity token F1 for NER).
	Acc map[string]float64
}

// MemoryBits returns the paper's memory axis for the cell.
func (c Cell) MemoryBits() int { return c.Dim * c.Prec }

// SentimentGrid evaluates the full dimension x precision x seed grid for
// every algorithm: the shared substrate of Figures 1, 2, 4-7 and Tables
// 1-3 and 9-11. Results are cached per configuration.
func (r *Runner) SentimentGrid(ctx context.Context) ([]Cell, error) {
	return r.grid(ctx, "sentiment", r.Cfg.Dims, r.Cfg.Precisions, r.Cfg.Seeds, r.Cfg.SentimentTasks, false)
}

// NERGrid evaluates the (possibly reduced) grid with the BiLSTM NER task.
func (r *Runner) NERGrid(ctx context.Context) ([]Cell, error) {
	if !r.Cfg.NEREnabled {
		return nil, nil
	}
	return r.grid(ctx, "ner", r.Cfg.NERDims, r.Cfg.NERPrecisions, r.Cfg.NERSeeds, nil, true)
}

func (r *Runner) grid(ctx context.Context, kind string, dims, precs []int, seeds []int64, sentTasks []string, withNER bool) ([]Cell, error) {
	// The key must cover every input that shapes the cells — including the
	// task set and the NER flag, or two grids over the same ladder but
	// different tasks would collide in the cache.
	key := fmt.Sprintf("%s|%v|%v|%v|%v|%v", kind, dims, precs, seeds, sentTasks, withNER)
	r.mu.Lock()
	if g, ok := r.gridCache[key]; ok {
		r.mu.Unlock()
		return g, nil
	}
	r.mu.Unlock()

	type job struct {
		algo      string
		dim, prec int
		seed      int64
	}
	var jobs []job
	for _, algo := range r.Cfg.Algorithms {
		for _, dim := range dims {
			for _, prec := range precs {
				for _, seed := range seeds {
					jobs = append(jobs, job{algo, dim, prec, seed})
				}
			}
		}
	}

	// Pre-train all embeddings serially (they are cached by Pair) so the
	// parallel phase below only reads the cache.
	for _, algo := range r.Cfg.Algorithms {
		for _, dim := range dims {
			for _, seed := range seeds {
				if _, _, err := r.Pair(ctx, algo, dim, seed); err != nil {
					return nil, err
				}
			}
		}
	}
	// Warm anchors and datasets.
	for _, algo := range r.Cfg.Algorithms {
		for _, seed := range seeds {
			if _, _, err := r.Anchors(ctx, algo, seed); err != nil {
				return nil, err
			}
		}
	}
	for _, t := range cellTasks(sentTasks, withNER) {
		if _, err := r.TaskEvaluator(t); err != nil {
			return nil, err
		}
	}

	cells := make([]Cell, len(jobs))
	errs := make([]error, len(jobs))
	parallel.Run(r.Cfg.Workers, len(jobs), func(i int) {
		j := jobs[i]
		cells[i], errs[i] = r.EvalCell(ctx, j.algo, j.dim, j.prec, j.seed, sentTasks, withNER)
	}, nil)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	r.mu.Lock()
	r.gridCache[key] = cells
	r.mu.Unlock()
	return cells, nil
}

// EvalCell evaluates one grid cell without touching the grid cache: it
// quantizes the pair, computes all measures on the top words, and
// trains/evaluates the enabled downstream tasks. The Wiki'17 and Wiki'18
// downstream models of each task are independent, so they train
// concurrently when the worker budget allows; results are identical
// either way. It is also the unit of work the benchmarks time. A canceled
// ctx stops it before the cell (QuantizedPair checks it first) and
// before each task.
func (r *Runner) EvalCell(ctx context.Context, algo string, dim, prec int, seed int64, sentTasks []string, withNER bool) (Cell, error) {
	q17, q18, err := r.QuantizedPair(ctx, algo, dim, prec, seed)
	if err != nil {
		return Cell{}, err
	}
	ms, err := r.Measures(ctx, algo, seed)
	if err != nil {
		return Cell{}, err
	}
	ids := r.TopWordIDs()
	s17, s18 := q17.SubRows(ids), q18.SubRows(ids)

	cell := Cell{
		Algo: algo, Dim: dim, Prec: prec, Seed: seed,
		Measures: map[string]float64{},
		DI:       map[string]float64{},
		Acc:      map[string]float64{},
	}
	for _, m := range ms {
		cell.Measures[m.Name()] = m.Distance(s17, s18)
	}

	for _, task := range cellTasks(sentTasks, withNER) {
		if err := ctx.Err(); err != nil {
			return Cell{}, err
		}
		ev, err := r.TaskEvaluator(task)
		if err != nil {
			return Cell{}, err
		}
		res := ev.Eval(q17, q18, seed, r.trainPair)
		cell.DI[task] = res.Disagreement
		cell.Acc[task] = res.Accuracy
	}
	return cell, nil
}

// cellTasks lists the downstream tasks a grid cell evaluates.
func cellTasks(sentTasks []string, withNER bool) []string {
	if !withNER {
		return sentTasks
	}
	return append(slices.Clone(sentTasks), "conll2003")
}

// trainPair runs the two model trainings of a cell, concurrently when the
// configured worker budget exceeds one. The trainings share no mutable
// state, so the schedule cannot change their results.
func (r *Runner) trainPair(f17, f18 func()) {
	if parallel.Workers(r.Cfg.Workers) > 1 {
		fns := []func(){f17, f18}
		parallel.Run(2, 2, func(s int) { fns[s]() }, nil)
	} else {
		f17()
		f18()
	}
}

// AverageOverSeeds groups cells by (algo, dim, prec) and averages the
// per-seed DI and measure values — the aggregation used in the figures.
func AverageOverSeeds(cells []Cell) []Cell {
	type key struct {
		algo      string
		dim, prec int
	}
	groups := map[key][]Cell{}
	for _, c := range cells {
		k := key{c.Algo, c.Dim, c.Prec}
		groups[k] = append(groups[k], c)
	}
	keys := make([]key, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].algo != keys[b].algo {
			return keys[a].algo < keys[b].algo
		}
		if keys[a].dim != keys[b].dim {
			return keys[a].dim < keys[b].dim
		}
		return keys[a].prec < keys[b].prec
	})
	out := make([]Cell, 0, len(keys))
	for _, k := range keys {
		g := groups[k]
		avg := Cell{
			Algo: k.algo, Dim: k.dim, Prec: k.prec,
			Measures: map[string]float64{},
			DI:       map[string]float64{},
			Acc:      map[string]float64{},
		}
		for _, c := range g {
			for name, v := range c.Measures {
				avg.Measures[name] += v / float64(len(g))
			}
			for name, v := range c.DI {
				avg.DI[name] += v / float64(len(g))
			}
			for name, v := range c.Acc {
				avg.Acc[name] += v / float64(len(g))
			}
		}
		out = append(out, avg)
	}
	return out
}

// FilterCells returns the cells matching the predicate.
func FilterCells(cells []Cell, keep func(Cell) bool) []Cell {
	var out []Cell
	for _, c := range cells {
		if keep(c) {
			out = append(out, c)
		}
	}
	return out
}
