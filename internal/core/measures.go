// Package core implements the paper's primary contribution: the
// eigenspace instability measure (Definition 2) with its theoretical link
// to downstream prediction disagreement (Proposition 1), alongside the four
// baseline embedding distance measures it is evaluated against (Section
// 2.4) and the downstream instability definition itself (Definition 1).
//
// All measures follow the convention "larger value = predicted to be more
// unstable downstream", so the paper's "1 − k-NN" and "1 − eigenspace
// overlap" reporting convention is built in.
package core

import (
	"container/list"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"anchor/internal/embedding"
	"anchor/internal/floats"
	"anchor/internal/matrix"
	"anchor/internal/parallel"
)

// Measure is an embedding distance measure: given a pair of embeddings
// over the same vocabulary it returns a scalar that is intended to predict
// the downstream instability of the pair (larger = more unstable).
type Measure interface {
	Name() string
	Distance(x, xt *embedding.Embedding) float64
}

// svdCacheCap bounds the shared SVD cache. Each entry holds an n-by-r
// factor, so an unbounded cache grows without limit in long-running
// processes that sweep many embedding configurations.
const svdCacheCap = 64

// svdCache memoizes thin SVDs keyed by embedding identity with LRU
// eviction at a fixed capacity. The selection experiments evaluate several
// measures over many pairs that share embeddings, and the SVD dominates
// their cost.
type svdCache struct {
	mu  sync.Mutex
	cap int
	m   map[string]*list.Element
	lru *list.List // front = most recently used
}

type svdEntry struct {
	key string
	svd matrix.SVD
}

func newSVDCache(capacity int) *svdCache {
	return &svdCache{cap: capacity, m: make(map[string]*list.Element), lru: list.New()}
}

func (c *svdCache) get(key string) (matrix.SVD, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return matrix.SVD{}, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*svdEntry).svd, true
}

func (c *svdCache) put(key string, s matrix.SVD) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		el.Value.(*svdEntry).svd = s
		c.lru.MoveToFront(el)
		return
	}
	c.m[key] = c.lru.PushFront(&svdEntry{key: key, svd: s})
	for c.lru.Len() > c.cap {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.m, back.Value.(*svdEntry).key)
	}
}

var sharedSVDs = newSVDCache(svdCacheCap)

// cacheKey returns a unique identity for the embedding, or "" if the
// embedding carries no provenance (ad-hoc matrices are never cached).
// The shape is part of the key because row-sliced sub-embeddings share
// their parent's Meta.
func cacheKey(e *embedding.Embedding) string {
	if e.Meta.Algorithm == "" {
		return ""
	}
	return fmt.Sprintf("%s@%dx%d", e.Meta.String(), e.Rows(), e.Dim())
}

func thinSVD(e *embedding.Embedding) matrix.SVD { return thinSVDWorkers(e, 0) }

func thinSVDWorkers(e *embedding.Embedding, workers int) matrix.SVD {
	key := cacheKey(e)
	if key == "" {
		return matrix.ComputeSVDWorkers(e.Vectors, workers)
	}
	if s, ok := sharedSVDs.get(key); ok {
		return s
	}
	s := matrix.ComputeSVDWorkers(e.Vectors, workers)
	sharedSVDs.put(key, s)
	return s
}

// KNN is the k-nearest-neighbor instability measure used in prior work on
// intrinsic embedding stability (Hellrich & Hahn 2016; Antoniak & Mimno
// 2018; Wendlandt et al. 2018). Distance returns 1 − (average neighbor
// overlap) over Queries randomly sampled query words, computed by the
// batched engine in knn.go: rows normalized once, query-block similarities
// through the parallel MulABT kernel, top-k via a bounded heap, and the
// two embeddings' neighbor sets evaluated concurrently.
type KNN struct {
	K       int
	Queries int
	Seed    int64
	// Workers bounds the goroutines used (<= 0 selects all CPUs). The
	// result is identical for every worker count.
	Workers int
}

// Name implements Measure.
func (m *KNN) Name() string { return "1-knn" }

// Distance implements Measure.
func (m *KNN) Distance(x, xt *embedding.Embedding) float64 {
	n := x.Rows()
	if xt.Rows() != n {
		panic("core: KNN row mismatch")
	}
	rng := rand.New(rand.NewSource(m.Seed))
	q := m.Queries
	if q > n {
		q = n
	}
	queries := sampleIndices(rng, n, q)

	var na, nb [][]int32
	if parallel.Workers(m.Workers) > 1 {
		// The two embeddings' neighbor sets are independent; overlap them.
		half := (parallel.Workers(m.Workers) + 1) / 2
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			nb = neighborSets(xt, queries, m.K, half)
		}()
		na = neighborSets(x, queries, m.K, half)
		wg.Wait()
	} else {
		na = neighborSets(x, queries, m.K, 1)
		nb = neighborSets(xt, queries, m.K, 1)
	}

	// Reduce in query order so the sum is independent of scheduling.
	var overlap float64
	for i := range queries {
		overlap += float64(knnOverlap(na[i], nb[i])) / float64(m.K)
	}
	return 1 - overlap/float64(len(queries))
}

// SemanticDisplacement measures the average cosine distance between
// aligned word vectors after solving orthogonal Procrustes (Hamilton et
// al. 2016): (1/n) Σ cos-dist(X_i, (X̃R)_i). Workers bounds the
// goroutines used (<= 0 selects all CPUs) without changing the result.
type SemanticDisplacement struct{ Workers int }

// Name implements Measure.
func (SemanticDisplacement) Name() string { return "semantic-displacement" }

// Distance implements Measure.
func (m SemanticDisplacement) Distance(x, xt *embedding.Embedding) float64 {
	if x.Rows() != xt.Rows() || x.Dim() != xt.Dim() {
		panic("core: SemanticDisplacement shape mismatch")
	}
	r := matrix.ProcrustesWorkers(x.Vectors, xt.Vectors, m.Workers)
	aligned := matrix.MulWorkers(xt.Vectors, r, m.Workers)
	var sum float64
	for i := 0; i < x.Rows(); i++ {
		sum += floats.CosineDist(x.Vector(i), aligned.Row(i))
	}
	return sum / float64(x.Rows())
}

// PIPLoss is the pairwise inner product loss ‖XXᵀ − X̃X̃ᵀ‖_F (Yin & Shen
// 2018), computed without materializing the n-by-n Gram matrices via
// ‖XXᵀ − X̃X̃ᵀ‖²_F = ‖XᵀX‖²_F + ‖X̃ᵀX̃‖²_F − 2‖XᵀX̃‖²_F. Workers bounds
// the goroutines used (<= 0 selects all CPUs) without changing the result.
type PIPLoss struct{ Workers int }

// Name implements Measure.
func (PIPLoss) Name() string { return "pip-loss" }

// Distance implements Measure.
func (m PIPLoss) Distance(x, xt *embedding.Embedding) float64 {
	if x.Rows() != xt.Rows() {
		panic("core: PIPLoss row mismatch")
	}
	gx := matrix.MulATBWorkers(x.Vectors, x.Vectors, m.Workers)
	gt := matrix.MulATBWorkers(xt.Vectors, xt.Vectors, m.Workers)
	cross := matrix.MulATBWorkers(x.Vectors, xt.Vectors, m.Workers)
	fx, ft, fc := gx.FrobNorm(), gt.FrobNorm(), cross.FrobNorm()
	v := fx*fx + ft*ft - 2*fc*fc
	if v < 0 {
		v = 0 // guard against cancellation for near-identical inputs
	}
	return math.Sqrt(v)
}

// EigenspaceOverlap is 1 minus the eigenspace overlap score
// (1/max(d,d̃))‖UᵀŨ‖²_F of May et al. 2019, so that larger means more
// unstable like every other measure here. Workers bounds the goroutines
// used (<= 0 selects all CPUs) without changing the result.
type EigenspaceOverlap struct{ Workers int }

// Name implements Measure.
func (EigenspaceOverlap) Name() string { return "1-eigenspace-overlap" }

// Distance implements Measure.
func (m EigenspaceOverlap) Distance(x, xt *embedding.Embedding) float64 {
	if x.Rows() != xt.Rows() {
		panic("core: EigenspaceOverlap row mismatch")
	}
	u := thinSVDWorkers(x, m.Workers).U
	ut := thinSVDWorkers(xt, m.Workers).U
	cross := matrix.MulATBWorkers(u, ut, m.Workers)
	f := cross.FrobNorm()
	denom := float64(u.Cols)
	if ut.Cols > u.Cols {
		denom = float64(ut.Cols)
	}
	return 1 - f*f/denom
}

// EigenspaceInstability is the paper's new measure (Definition 2): the
// normalized trace tr((UUᵀ + ŨŨᵀ − 2ŨŨᵀUUᵀ)Σ) / tr(Σ) with
// Σ = (EEᵀ)^α + (ẼẼᵀ)^α built from two fixed high-quality anchor
// embeddings E and Ẽ (the paper uses the highest-dimensional
// full-precision Wiki'17 and Wiki'18 embeddings). Distance evaluates it
// with the memory-efficient Appendix B.1 factorization, never forming an
// n-by-n matrix.
type EigenspaceInstability struct {
	// E and ETilde are the anchor embeddings defining Σ.
	E, ETilde *embedding.Embedding
	// Alpha weights high-eigenvalue directions (the paper selects α=3).
	Alpha float64
	// Workers bounds the goroutines used (<= 0 selects all CPUs). The
	// result is identical for every worker count.
	Workers int
}

// NewEigenspaceInstability returns the measure with the paper's α=3.
func NewEigenspaceInstability(e, eTilde *embedding.Embedding) *EigenspaceInstability {
	return &EigenspaceInstability{E: e, ETilde: eTilde, Alpha: 3}
}

// Name implements Measure.
func (m *EigenspaceInstability) Name() string { return "eigenspace-instability" }

// Distance implements Measure.
func (m *EigenspaceInstability) Distance(x, xt *embedding.Embedding) float64 {
	n := x.Rows()
	if xt.Rows() != n || m.E.Rows() != n || m.ETilde.Rows() != n {
		panic("core: EigenspaceInstability row mismatch")
	}
	u := thinSVDWorkers(x, m.Workers).U
	ut := thinSVDWorkers(xt, m.Workers).U

	num := 0.0
	den := 0.0
	for _, anchor := range []*embedding.Embedding{m.E, m.ETilde} {
		s := thinSVDWorkers(anchor, m.Workers)
		// Scale V's columns by σ^α: VRα has shape n-by-r. σ^α is hoisted
		// into a per-column vector — it is constant down each column.
		scale := powColumnScales(s.S, m.Alpha)
		vra := s.U.Clone() // left singular vectors of the anchor (n-by-r)
		for i := 0; i < vra.Rows; i++ {
			row := vra.Row(i)
			for j := range row {
				row[j] *= scale[j]
			}
		}
		uv := matrix.MulATBWorkers(u, vra, m.Workers)   // Uᵀ V Rα  (d-by-r)
		utv := matrix.MulATBWorkers(ut, vra, m.Workers) // Ũᵀ V Rα  (k-by-r)
		uut := matrix.MulATBWorkers(ut, u, m.Workers)   // Ũᵀ U    (k-by-d)

		fuv := uv.FrobNorm()
		futv := utv.FrobNorm()
		num += fuv*fuv + futv*futv

		// −2 tr(Rα Vᵀ Ũ Ũᵀ U Uᵀ V Rα) = −2 tr((Ũᵀ V Rα)ᵀ (ŨᵀU)(Uᵀ V Rα)).
		mid := matrix.MulWorkers(uut, uv, m.Workers) // k-by-r
		var tr float64
		for i := range mid.Data {
			tr += mid.Data[i] * utv.Data[i]
		}
		num -= 2 * tr

		for _, sv := range s.S {
			den += math.Pow(sv, 2*m.Alpha)
		}
	}
	if den == 0 {
		return 0
	}
	v := num / den
	if v < 0 {
		v = 0 // numerical guard: the trace is provably nonnegative
	}
	return v
}

// powColumnScales returns σ_j^α for every singular value, computed once
// per column instead of once per matrix row.
func powColumnScales(s []float64, alpha float64) []float64 {
	scale := make([]float64, len(s))
	for j, sv := range s {
		scale[j] = math.Pow(sv, alpha)
	}
	return scale
}

// AllMeasures returns the paper's five measures in reporting order, with
// the given anchors for the eigenspace instability measure, running on
// all CPUs.
func AllMeasures(e, eTilde *embedding.Embedding) []Measure {
	return AllMeasuresWorkers(e, eTilde, 0)
}

// AllMeasuresWorkers is AllMeasures with an explicit goroutine budget
// threaded into every measure (workers <= 0 selects all CPUs). Worker
// count is a pure throughput knob: every measure returns the same value
// for every worker count.
func AllMeasuresWorkers(e, eTilde *embedding.Embedding, workers int) []Measure {
	return NewMeasures(MeasureConfig{Anchors: e, AnchorsTilde: eTilde, Workers: workers})
}
