package experiments

import (
	"context"
	"fmt"
	"sync"

	"anchor/internal/core"
	"anchor/internal/kge"
	"anchor/internal/parallel"
	"anchor/internal/stats"
)

// kgePair holds trained TransE models for FB15K-95 and FB15K at one
// (dim, seed).
type kgePair struct {
	m95, mFull *kge.TransE
}

var (
	kgeMu    sync.Mutex
	kgeCache = map[string]kgePair{}
)

func (r *Runner) kgePair(ctx context.Context, dim int, seed int64) (kgePair, error) {
	key := fmt.Sprintf("%v|%d|%d", r.Cfg.KGEGraph, dim, seed)
	kgeMu.Lock()
	p, ok := kgeCache[key]
	kgeMu.Unlock()
	if ok {
		return p, nil
	}
	if err := ctx.Err(); err != nil {
		return kgePair{}, err
	}
	g := kge.GenerateGraph(r.Cfg.KGEGraph)
	g95 := kge.Subsample(g, 0.95, 7)
	cfg := kge.DefaultTransEConfig(dim, seed)
	p = kgePair{m95: kge.TrainTransE(g95, cfg), mFull: kge.TrainTransE(g, cfg)}
	kgeMu.Lock()
	kgeCache[key] = p
	kgeMu.Unlock()
	return p, nil
}

// kgeEval evaluates one quantized pair on both KGE tasks. sharedThreshold
// selects the Figure 3 protocol (thresholds tuned on the FB15K-95 model
// and reused) versus Figure 10's per-dataset tuning.
func kgeEval(g *kge.Graph, q95, qFull *kge.TransE, sharedThreshold bool) (unstableRank, disagreement float64) {
	ranks95 := q95.TailRanks(g.Test)
	ranksFull := qFull.TailRanks(g.Test)
	unstableRank = kge.UnstableRankAt10(ranks95, ranksFull)

	val := kge.BuildClassificationSet(g, g.Valid, 1)
	test := kge.BuildClassificationSet(g, g.Test, 2)
	th95 := q95.TuneThresholds(g.NumRelations, val)
	thFull := th95
	if !sharedThreshold {
		thFull = qFull.TuneThresholds(g.NumRelations, val)
	}
	pa := q95.Classify(test, th95)
	pb := qFull.Classify(test, thFull)
	disagreement = core.PredictionDisagreementPct(pa, pb)
	return unstableRank, disagreement
}

func (r *Runner) kgeTable(ctx context.Context, id string, sharedThreshold bool) ([]*Table, error) {
	g := kge.GenerateGraph(r.Cfg.KGEGraph)
	t := &Table{
		ID:    id,
		Title: "KGE stability vs memory (TransE, FB15K-95 vs FB15K)",
		Columns: []string{"dim", "prec", "memory(bits/vector)", "unstable-rank@10(%)",
			"triplet classification %disagreement"},
	}
	type row struct {
		dim, prec int
		ur, di    float64
	}
	var jobs []struct {
		dim, prec int
		seed      int64
	}
	for _, dim := range r.Cfg.KGEDims {
		for _, prec := range r.Cfg.KGEPrecisions {
			for _, seed := range r.Cfg.KGESeeds {
				jobs = append(jobs, struct {
					dim, prec int
					seed      int64
				}{dim, prec, seed})
			}
		}
	}
	// Train the models serially (training is cached per dim/seed), so
	// the parallel phase below only quantizes and evaluates.
	pairs := make([]kgePair, len(jobs))
	for i, j := range jobs {
		var err error
		if pairs[i], err = r.kgePair(ctx, j.dim, j.seed); err != nil {
			return nil, err
		}
	}
	results := make([]row, len(jobs))
	errs := make([]error, len(jobs))
	parallel.Run(r.Cfg.Workers, len(jobs), func(i int) {
		if errs[i] = ctx.Err(); errs[i] != nil {
			return
		}
		j, p := jobs[i], pairs[i]
		// One worker per job: the jobs already fill the budget.
		q95, qFull := kge.QuantizePair(p.m95, p.mFull, j.prec, 1)
		ur, di := kgeEval(g, q95, qFull, sharedThreshold)
		results[i] = row{j.dim, j.prec, ur * 100, di}
	}, nil)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Average over seeds per (dim, prec).
	type key struct{ dim, prec int }
	sums := map[key]row{}
	counts := map[key]int{}
	for _, res := range results {
		k := key{res.dim, res.prec}
		s := sums[k]
		s.dim, s.prec = res.dim, res.prec
		s.ur += res.ur
		s.di += res.di
		sums[k] = s
		counts[k]++
	}
	var pts []stats.LinearLogPoint
	for _, dim := range r.Cfg.KGEDims {
		for _, prec := range r.Cfg.KGEPrecisions {
			k := key{dim, prec}
			n := counts[k]
			if n == 0 {
				continue
			}
			s := sums[k]
			ur, di := s.ur/float64(n), s.di/float64(n)
			t.AddRow(dim, prec, dim*prec, ur, di)
			pts = append(pts, stats.LinearLogPoint{Task: "linkpred", X: float64(dim * prec), Y: ur})
		}
	}
	fitT := &Table{
		ID: id, Title: "Linear-log fit of unstable-rank@10 vs memory",
		Columns: []string{"series", "slope (% per 2x memory)"},
	}
	if len(pts) >= 2 {
		fitT.AddRow("link prediction", stats.FitLinearLog(pts).Slope)
	}
	return []*Table{t, fitT}, nil
}

// Fig3 reproduces Figure 3: KGE link prediction and triplet
// classification stability vs memory with shared thresholds.
func Fig3(ctx context.Context, r *Runner) ([]*Table, error) {
	return r.kgeTable(ctx, "fig3", true)
}

// Fig10 reproduces Appendix Figure 10: triplet classification with
// per-dataset thresholds.
func Fig10(ctx context.Context, r *Runner) ([]*Table, error) {
	return r.kgeTable(ctx, "fig10", false)
}
