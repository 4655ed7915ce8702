package core

import (
	"math/rand"
	"sort"
	"sync"

	"anchor/internal/embedding"
	"anchor/internal/floats"
	"anchor/internal/matrix"
	"anchor/internal/parallel"
)

// Batched k-NN engine. The seed implementation scored each query against
// every candidate with a fresh cosine (two norms + one dot per pair) and
// sorted all n candidates per query. This engine normalizes each
// embedding's rows once, computes query-block similarities with the
// blocked parallel MulABT kernel, and selects the top k with a bounded
// heap — O(q·n·d + q·n·log k) total, with all O(n)-sized scratch pooled
// per worker (only the k-element result slice is allocated per query).
// Results are deterministic and identical for every worker count:
// per-query work is independent and the final overlap reduction runs in
// query order.

// knnBlockSize is the number of query rows scored per MulABT call; it
// bounds the similarity buffer at knnBlockSize×n floats per worker.
const knnBlockSize = 128

// sampleIndices draws q distinct indices uniformly from [0, n) with a
// sparse partial Fisher–Yates shuffle: q draws and O(q) memory, versus the
// full n-element permutation rng.Perm allocates. The draw sequence is a
// pure function of (rng state, n, q).
func sampleIndices(rng *rand.Rand, n, q int) []int {
	alias := make(map[int]int, q)
	out := make([]int, q)
	for i := 0; i < q; i++ {
		j := i + rng.Intn(n-i)
		vj, ok := alias[j]
		if !ok {
			vj = j
		}
		vi, ok := alias[i]
		if !ok {
			vi = i
		}
		out[i] = vj
		alias[j] = vi
	}
	return out
}

// NormalizedRows returns a copy of e's vectors with every row scaled to
// unit L2 norm (zero rows stay zero, matching CosineSim's convention),
// normalizing each row exactly once. This is the query-ready form shared
// by the k-NN measure and the serving-path query engine: cosine
// similarities against it are plain dot products, computable in blocks
// with the MulABT kernel.
func NormalizedRows(e *embedding.Embedding, workers int) *matrix.Dense {
	n, d := e.Rows(), e.Dim()
	out := matrix.NewDense(n, d)
	w := parallel.Workers(workers)
	if w > n {
		w = n
	}
	bands := parallel.Ranges(n, w)
	parallel.Run(w, len(bands), func(s int) {
		for i := bands[s].Lo; i < bands[s].Hi; i++ {
			row := out.Row(i)
			copy(row, e.Vector(i))
			floats.Normalize(row)
		}
	}, nil)
	return out
}

// topKHeap is a bounded min-heap over (similarity, index) pairs ordered by
// the seed implementation's ranking rule: higher similarity wins, ties
// break toward the lower index. The root is the weakest retained neighbor.
type topKHeap struct {
	sims  []float64
	idxs  []int32
	order []int // scratch for the final rank sort, reused across queries
}

// worse reports whether entry a ranks strictly below entry b.
func (h *topKHeap) worse(a, b int) bool {
	if h.sims[a] != h.sims[b] {
		return h.sims[a] < h.sims[b]
	}
	return h.idxs[a] > h.idxs[b]
}

func (h *topKHeap) siftDown(i int) {
	n := len(h.sims)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && h.worse(l, min) {
			min = l
		}
		if r < n && h.worse(r, min) {
			min = r
		}
		if min == i {
			return
		}
		h.sims[i], h.sims[min] = h.sims[min], h.sims[i]
		h.idxs[i], h.idxs[min] = h.idxs[min], h.idxs[i]
		i = min
	}
}

// topK writes the indices of the k best-ranked candidates in sims
// (excluding index self) into out, ordered by similarity descending with
// index-ascending tie-breaks — the seed full sort's ranking rule. (The
// similarities themselves are dots of pre-normalized rows, which can
// differ from the seed's Dot/(‖x‖·‖y‖) in the last ulp, so candidates
// that tie mathematically may rank differently at the k boundary than
// the seed implementation; the selection is still deterministic.)
// h's storage is reused across calls.
func (h *topKHeap) topK(sims []float64, self int, k int, out []int32) []int32 {
	n := len(sims)
	if k > n-1 {
		k = n - 1
	}
	if k <= 0 {
		return out[:0]
	}
	h.sims = h.sims[:0]
	h.idxs = h.idxs[:0]
	for i := 0; i < n; i++ {
		if i == self {
			continue
		}
		if len(h.sims) < k {
			h.sims = append(h.sims, sims[i])
			h.idxs = append(h.idxs, int32(i))
			if len(h.sims) == k {
				for j := k/2 - 1; j >= 0; j-- {
					h.siftDown(j)
				}
			}
			continue
		}
		// Replace the root when candidate i outranks it.
		if sims[i] > h.sims[0] || (sims[i] == h.sims[0] && int32(i) < h.idxs[0]) {
			h.sims[0] = sims[i]
			h.idxs[0] = int32(i)
			h.siftDown(0)
		}
	}
	out = out[:len(h.idxs)]
	h.order = h.order[:0]
	for i := range h.idxs {
		h.order = append(h.order, i)
	}
	sort.Slice(h.order, func(a, b int) bool { return h.worse(h.order[b], h.order[a]) })
	for i, o := range h.order {
		out[i] = h.idxs[o]
	}
	return out
}

// TopKSelector selects the best-ranked k candidates from a row of
// similarities with the bounded-heap kernel, reusing its internal scratch
// across calls. The zero value is ready to use; a selector is not safe
// for concurrent use (hold one per goroutine).
type TopKSelector struct {
	h topKHeap
}

// Select writes the indices of the k best-ranked candidates in sims
// (excluding index self) into out, ordered by similarity descending with
// index-ascending tie-breaks, and returns the filled prefix of out.
func (s *TopKSelector) Select(sims []float64, self, k int, out []int32) []int32 {
	return s.h.topK(sims, self, k, out)
}

// Overlap returns the shared-element count between two neighbor lists —
// the paper's k-NN instability numerator. k is small, so the quadratic
// scan beats building a set.
func Overlap(a, b []int32) int { return knnOverlap(a, b) }

// neighborSets returns, for each query, the indices of the k rows of e
// most cosine-similar to it (excluding the query itself), each list
// ordered by similarity descending with index-ascending tie-breaks.
func neighborSets(e *embedding.Embedding, queries []int, k, workers int) [][]int32 {
	n := e.Rows()
	norm := NormalizedRows(e, workers)
	out := make([][]int32, len(queries))

	type scratch struct {
		qb   *matrix.Dense // gathered query rows
		sb   *matrix.Dense // similarity block
		heap topKHeap
	}
	pool := sync.Pool{New: func() any {
		return &scratch{
			qb:   matrix.NewDense(knnBlockSize, e.Dim()),
			sb:   matrix.NewDense(knnBlockSize, n),
			heap: topKHeap{sims: make([]float64, 0, k), idxs: make([]int32, 0, k)},
		}
	}}

	nBlocks := (len(queries) + knnBlockSize - 1) / knnBlockSize
	w := parallel.Workers(workers)
	parallel.Run(w, nBlocks, func(s int) {
		lo := s * knnBlockSize
		hi := lo + knnBlockSize
		if hi > len(queries) {
			hi = len(queries)
		}
		sc := pool.Get().(*scratch)
		defer pool.Put(sc)
		qb := matrix.NewDenseData(hi-lo, e.Dim(), sc.qb.Data[:(hi-lo)*e.Dim()])
		sb := matrix.NewDenseData(hi-lo, n, sc.sb.Data[:(hi-lo)*n])
		for r, qi := range queries[lo:hi] {
			copy(qb.Row(r), norm.Row(qi))
		}
		// The outer loop already spans the workers, so the kernel runs
		// serially within the block; per-query results are independent of
		// the blocking either way.
		matrix.MulABTInto(sb, qb, norm, 1)
		for r, qi := range queries[lo:hi] {
			out[lo+r] = sc.heap.topK(sb.Row(r), qi, k, make([]int32, k))
		}
	}, nil)
	return out
}

// knnOverlap is the shared-neighbor count between two neighbor lists.
// k is small, so the quadratic scan beats building a set.
func knnOverlap(a, b []int32) int {
	shared := 0
	for _, x := range a {
		for _, y := range b {
			if x == y {
				shared++
				break
			}
		}
	}
	return shared
}
