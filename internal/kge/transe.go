package kge

import (
	"math"
	"math/rand"
	"sort"

	"anchor/internal/floats"
	"anchor/internal/matrix"
)

// TransEConfig mirrors the training protocol of Bordes et al. (2013) /
// OpenKE used in the paper (Appendix C.5): margin ranking loss with L1
// distance, uniform head/tail corruption, SGD, and per-epoch entity
// normalization.
type TransEConfig struct {
	Dim    int
	Epochs int
	LR     float64
	Margin float64
	Seed   int64
}

// DefaultTransEConfig returns the paper's hyperparameters (margin 1, L1,
// uniform corruption) with epochs scaled to the synthetic graph.
func DefaultTransEConfig(dim int, seed int64) TransEConfig {
	return TransEConfig{Dim: dim, Epochs: 30, LR: 0.01, Margin: 1, Seed: seed}
}

// TransE is a trained knowledge graph embedding: one vector per entity and
// per relation, scored by d(h + r, t) with L1 distance.
type TransE struct {
	Entity   *matrix.Dense // NumEntities x Dim
	Relation *matrix.Dense // NumRelations x Dim
}

// TrainTransE learns TransE embeddings for the graph.
func TrainTransE(g *Graph, cfg TransEConfig) *TransE {
	rng := rand.New(rand.NewSource(cfg.Seed))
	bound := 6 / math.Sqrt(float64(cfg.Dim))
	m := &TransE{
		Entity:   matrix.NewDenseRand(g.NumEntities, cfg.Dim, bound, rng),
		Relation: matrix.NewDenseRand(g.NumRelations, cfg.Dim, bound, rng),
	}
	// Relations are normalized once at init (Bordes et al. 2013).
	for r := 0; r < g.NumRelations; r++ {
		floats.Normalize(m.Relation.Row(r))
	}

	order := make([]int, len(g.Train))
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		// Entity normalization at the start of each epoch.
		for e := 0; e < g.NumEntities; e++ {
			floats.Normalize(m.Entity.Row(e))
		}
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		for _, i := range order {
			pos := g.Train[i]
			neg := pos
			// Uniform corruption of head or tail.
			if rng.Intn(2) == 0 {
				neg.H = int32(rng.Intn(g.NumEntities))
			} else {
				neg.T = int32(rng.Intn(g.NumEntities))
			}
			m.marginStep(pos, neg, cfg.Margin, cfg.LR)
		}
	}
	return m
}

// marginStep applies one SGD step on max(0, margin + d(pos) - d(neg))
// with L1 distance.
func (m *TransE) marginStep(pos, neg Triplet, margin, lr float64) {
	if margin+m.Score(pos)-m.Score(neg) <= 0 {
		return
	}
	// Gradient of L1 distance d(h+r-t) wrt its argument is sign(h+r-t).
	dim := m.Entity.Cols
	hp, rp, tp := m.Entity.Row(int(pos.H)), m.Relation.Row(int(pos.R)), m.Entity.Row(int(pos.T))
	hn, rn, tn := m.Entity.Row(int(neg.H)), m.Relation.Row(int(neg.R)), m.Entity.Row(int(neg.T))
	for j := 0; j < dim; j++ {
		gp := sign(hp[j] + rp[j] - tp[j]) // increase of d(pos) direction
		hp[j] -= lr * gp
		rp[j] -= lr * gp
		tp[j] += lr * gp
		gn := sign(hn[j] + rn[j] - tn[j])
		hn[j] += lr * gn
		rn[j] += lr * gn
		tn[j] -= lr * gn
	}
}

func sign(x float64) float64 {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	}
	return 0
}

// Score returns the TransE energy d(h + r, t) with L1 distance; lower
// means the triplet is more plausible.
func (m *TransE) Score(t Triplet) float64 {
	h := m.Entity.Row(int(t.H))
	r := m.Relation.Row(int(t.R))
	tt := m.Entity.Row(int(t.T))
	var s float64
	for j := range h {
		s += math.Abs(h[j] + r[j] - tt[j])
	}
	return s
}

// TailRank returns the rank (1-based) of the true tail among all entities
// substituted as tail, ordered by ascending energy — the link prediction
// protocol ("raw" setting).
func (m *TransE) TailRank(t Triplet) int {
	target := m.Score(t)
	rank := 1
	probe := t
	for e := 0; e < m.Entity.Rows; e++ {
		if int32(e) == t.T {
			continue
		}
		probe.T = int32(e)
		if m.Score(probe) < target {
			rank++
		}
	}
	return rank
}

// TailRanks returns TailRank for every triplet.
func (m *TransE) TailRanks(triplets []Triplet) []int {
	out := make([]int, len(triplets))
	for i, t := range triplets {
		out[i] = m.TailRank(t)
	}
	return out
}

// UnstableRankAt10 is the paper's link prediction instability metric: the
// fraction of test triplets whose rank changes by more than 10 between two
// models.
func UnstableRankAt10(a, b []int) float64 {
	if len(a) != len(b) {
		panic("kge: rank slices must align")
	}
	if len(a) == 0 {
		return 0
	}
	n := 0
	for i := range a {
		if abs(a[i]-b[i]) > 10 {
			n++
		}
	}
	return float64(n) / float64(len(a))
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// ClassificationSet is a labeled triplet set for triplet classification:
// each positive triplet is paired with one corrupted negative.
type ClassificationSet struct {
	Triplets []Triplet
	Labels   []bool
}

// BuildClassificationSet pairs each source triplet with a corrupted
// negative (tail replacement), as in Socher et al. (2013).
func BuildClassificationSet(g *Graph, src []Triplet, seed int64) ClassificationSet {
	rng := rand.New(rand.NewSource(seed))
	pos := map[Triplet]bool{}
	for _, t := range append(append(append([]Triplet{}, g.Train...), g.Valid...), g.Test...) {
		pos[t] = true
	}
	var set ClassificationSet
	for _, t := range src {
		set.Triplets = append(set.Triplets, t)
		set.Labels = append(set.Labels, true)
		neg := t
		for {
			neg.T = int32(rng.Intn(g.NumEntities))
			if !pos[neg] && neg.T != neg.H {
				break
			}
		}
		set.Triplets = append(set.Triplets, neg)
		set.Labels = append(set.Labels, false)
	}
	return set
}

// scored pairs a triplet energy with its gold label for threshold tuning.
type scored struct {
	s     float64
	label bool
}

// TuneThresholds selects one energy threshold per relation that maximizes
// accuracy on the validation classification set: predict positive iff
// d(h+r, t) <= threshold[r].
func (m *TransE) TuneThresholds(numRelations int, val ClassificationSet) []float64 {
	byRel := make([][]scored, numRelations)
	for i, t := range val.Triplets {
		byRel[t.R] = append(byRel[t.R], scored{m.Score(t), val.Labels[i]})
	}
	thresholds := make([]float64, numRelations)
	var global []scored
	for _, ss := range byRel {
		global = append(global, ss...)
	}
	globalThresh := bestThreshold(global)
	for r, ss := range byRel {
		if len(ss) == 0 {
			thresholds[r] = globalThresh
			continue
		}
		thresholds[r] = bestThreshold(ss)
	}
	return thresholds
}

func bestThreshold(ss []scored) float64 {
	if len(ss) == 0 {
		return 0
	}
	sort.Slice(ss, func(a, b int) bool { return ss[a].s < ss[b].s })
	// Candidate thresholds between consecutive scores; pick max accuracy.
	best, bestAcc := ss[0].s-1e-9, -1
	posBelow, totalPos := 0, 0
	for _, x := range ss {
		if x.label {
			totalPos++
		}
	}
	negBelow := 0
	for i := 0; i <= len(ss); i++ {
		// Threshold after i elements: positives below + negatives above.
		acc := posBelow + (len(ss) - totalPos - negBelow)
		if acc > bestAcc {
			bestAcc = acc
			if i == 0 {
				best = ss[0].s - 1e-9
			} else if i == len(ss) {
				best = ss[len(ss)-1].s + 1e-9
			} else {
				best = (ss[i-1].s + ss[i].s) / 2
			}
		}
		if i < len(ss) {
			if ss[i].label {
				posBelow++
			} else {
				negBelow++
			}
		}
	}
	return best
}

// Classify predicts labels for the set with the given per-relation
// thresholds.
func (m *TransE) Classify(set ClassificationSet, thresholds []float64) []bool {
	out := make([]bool, len(set.Triplets))
	for i, t := range set.Triplets {
		out[i] = m.Score(t) <= thresholds[t.R]
	}
	return out
}

// Quantize returns a copy of the model with both embedding matrices
// uniformly quantized to the given precision, sharing this model's clips
// (use QuantizePair to share clips across a model pair as the paper does).
// workers is the quantization's goroutine budget (<= 0 selects all CPUs).
func (m *TransE) Quantize(bits int, entClip, relClip float64, workers int) *TransE {
	if bits >= 32 {
		return &TransE{Entity: m.Entity.Clone(), Relation: m.Relation.Clone()}
	}
	return &TransE{
		Entity:   quantizeDense(m.Entity, bits, entClip, workers),
		Relation: quantizeDense(m.Relation, bits, relClip, workers),
	}
}
