package core

import (
	"math/rand"
	"sort"
	"testing"

	"anchor/internal/embedding"
	"anchor/internal/floats"
)

// referenceNearestK is the seed implementation of top-k cosine neighbor
// search — a fresh cosine per pair and a full sort — kept as the golden
// reference for the batched engine.
func referenceNearestK(e *embedding.Embedding, query, k int) []int {
	type cand struct {
		idx int
		sim float64
	}
	qv := e.Vector(query)
	cands := make([]cand, 0, e.Rows()-1)
	for i := 0; i < e.Rows(); i++ {
		if i == query {
			continue
		}
		cands = append(cands, cand{i, floats.CosineSim(qv, e.Vector(i))})
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].sim != cands[b].sim {
			return cands[a].sim > cands[b].sim
		}
		return cands[a].idx < cands[b].idx
	})
	if k > len(cands) {
		k = len(cands)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = cands[i].idx
	}
	return out
}

// referenceKNNDistance is the seed measure loop over referenceNearestK,
// used by equivalence tests and the pre-PR benchmark.
func referenceKNNDistance(m *KNN, x, xt *embedding.Embedding, queries []int) float64 {
	var overlap float64
	for _, qi := range queries {
		na := referenceNearestK(x, qi, m.K)
		nb := referenceNearestK(xt, qi, m.K)
		inA := make(map[int]bool, len(na))
		for _, w := range na {
			inA[w] = true
		}
		shared := 0
		for _, w := range nb {
			if inA[w] {
				shared++
			}
		}
		overlap += float64(shared) / float64(m.K)
	}
	return 1 - overlap/float64(len(queries))
}

// TestNeighborSetsMatchReference is the golden equivalence test: the
// batched engine must return exactly the seed implementation's neighbor
// lists — same indices, same order — for every query, k, and worker count.
func TestNeighborSetsMatchReference(t *testing.T) {
	for _, tc := range []struct{ n, d, k int }{
		{40, 8, 5}, {150, 16, 5}, {150, 16, 1}, {150, 16, 30}, {10, 4, 20},
	} {
		e := randEmb(tc.n, tc.d, int64(100+tc.n+tc.k))
		queries := make([]int, tc.n)
		for i := range queries {
			queries[i] = i
		}
		for _, w := range []int{1, 2, 4, 7} {
			sets := neighborSets(e, queries, tc.k, w)
			for _, qi := range queries {
				want := referenceNearestK(e, qi, tc.k)
				got := sets[qi]
				if len(got) != len(want) {
					t.Fatalf("n=%d k=%d w=%d q=%d: %d neighbors, want %d", tc.n, tc.k, w, qi, len(got), len(want))
				}
				for i := range want {
					if int(got[i]) != want[i] {
						t.Fatalf("n=%d k=%d w=%d q=%d: neighbors %v, want %v", tc.n, tc.k, w, qi, got, want)
					}
				}
			}
		}
	}
}

// TestKNNDistanceMatchesReference checks the full measure against the
// seed loop on the same query set.
func TestKNNDistanceMatchesReference(t *testing.T) {
	x := randEmb(120, 12, 41)
	xt := perturb(x, 0.3, 42)
	m := &KNN{K: 5, Queries: 60, Seed: 9}
	rng := rand.New(rand.NewSource(m.Seed))
	queries := sampleIndices(rng, x.Rows(), m.Queries)
	want := referenceKNNDistance(m, x, xt, queries)
	for _, w := range []int{1, 2, 4} {
		m.Workers = w
		if got := m.Distance(x, xt); got != want {
			t.Fatalf("workers=%d: distance %v, want %v", w, got, want)
		}
	}
}

func TestSampleIndices(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n, q := 50, 20
	got := sampleIndices(rng, n, q)
	if len(got) != q {
		t.Fatalf("got %d indices, want %d", len(got), q)
	}
	seen := map[int]bool{}
	for _, v := range got {
		if v < 0 || v >= n {
			t.Fatalf("index %d out of range [0,%d)", v, n)
		}
		if seen[v] {
			t.Fatalf("duplicate index %d", v)
		}
		seen[v] = true
	}
	// Drawing all n indices must yield a permutation.
	perm := sampleIndices(rand.New(rand.NewSource(4)), n, n)
	seen = map[int]bool{}
	for _, v := range perm {
		seen[v] = true
	}
	if len(seen) != n {
		t.Fatalf("full draw covered %d of %d indices", len(seen), n)
	}
	// Deterministic in the seed.
	a := sampleIndices(rand.New(rand.NewSource(5)), n, q)
	b := sampleIndices(rand.New(rand.NewSource(5)), n, q)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("sampleIndices not deterministic for a fixed seed")
		}
	}
}

// TestSampleIndicesUniform spot-checks marginal uniformity: over many
// seeds, each position of [0,n) should be drawn with probability q/n.
func TestSampleIndicesUniform(t *testing.T) {
	n, q, trials := 20, 5, 4000
	counts := make([]int, n)
	for s := 0; s < trials; s++ {
		rng := rand.New(rand.NewSource(int64(s)))
		for _, v := range sampleIndices(rng, n, q) {
			counts[v]++
		}
	}
	want := float64(trials) * float64(q) / float64(n)
	for i, c := range counts {
		if float64(c) < 0.8*want || float64(c) > 1.2*want {
			t.Fatalf("index %d drawn %d times, want ~%.0f", i, c, want)
		}
	}
}

// TestAllMeasuresWorkerInvariance asserts the PR's determinism contract:
// every measure returns a bitwise-identical value for every worker count.
func TestAllMeasuresWorkerInvariance(t *testing.T) {
	ResetSVDCache()
	x := randEmb(90, 12, 51)
	xt := perturb(x, 0.2, 52)
	e := randEmb(90, 16, 53)
	et := perturb(e, 0.05, 54)
	base := AllMeasuresWorkers(e, et, 1)
	want := make([]float64, len(base))
	for i, m := range base {
		want[i] = m.Distance(x, xt)
	}
	for _, w := range []int{2, 3, 4, 8} {
		for i, m := range AllMeasuresWorkers(e, et, w) {
			if got := m.Distance(x, xt); got != want[i] {
				t.Fatalf("%s: workers=%d gives %v, workers=1 gives %v (not bitwise equal)",
					m.Name(), w, got, want[i])
			}
		}
	}
}

func TestSVDCacheLRUEviction(t *testing.T) {
	shared := sharedSVDs
	sharedSVDs = newSVDCache(2)
	defer func() { sharedSVDs = shared }()
	mk := func(seed int64) *embedding.Embedding {
		e := randEmb(20, 4, seed)
		e.Meta = embedding.Meta{Algorithm: "mc", Corpus: "wiki17", Dim: 4, Seed: seed, Precision: 32}
		return e
	}
	a, b, c := mk(1), mk(2), mk(3)
	sa := thinSVD(a)
	thinSVD(b)
	// Touch a so b becomes least recently used, then insert c to evict b.
	if got := thinSVD(a); &got.U.Data[0] != &sa.U.Data[0] {
		t.Fatal("a not served from cache")
	}
	sb := thinSVD(b) // refill: b evicted? No — cap 2 holds {a,b}; touch order now b,a.
	sc := thinSVD(c) // evicts a (LRU after the b touch)
	if got := thinSVD(b); &got.U.Data[0] != &sb.U.Data[0] {
		t.Fatal("b should still be cached")
	}
	if got := thinSVD(c); &got.U.Data[0] != &sc.U.Data[0] {
		t.Fatal("c should still be cached")
	}
	if got := thinSVD(a); &got.U.Data[0] == &sa.U.Data[0] {
		t.Fatal("a should have been evicted and recomputed")
	}
}

// benchKNNPair builds a deterministic n-by-d embedding pair for the k-NN
// benchmarks, the second a small perturbation of the first.
func benchKNNPair(n, d int) (*embedding.Embedding, *embedding.Embedding) {
	rng := rand.New(rand.NewSource(1))
	a := embedding.New(n, d)
	b := embedding.New(n, d)
	for i := range a.Vectors.Data {
		a.Vectors.Data[i] = rng.NormFloat64()
		b.Vectors.Data[i] = a.Vectors.Data[i] + 0.1*rng.NormFloat64()
	}
	return a, b
}

// BenchmarkKNNMeasureReference3000 times the seed implementation (fresh
// cosine per pair, full sort per query) at the scale where the batched
// engine's speedup is measured; compare with BenchmarkKNNMeasure3000 in
// the root package.
func BenchmarkKNNMeasureReference3000(b *testing.B) {
	x, xt := benchKNNPair(3000, 64)
	m := &KNN{K: 5, Queries: 1000, Seed: 1}
	rng := rand.New(rand.NewSource(m.Seed))
	queries := sampleIndices(rng, x.Rows(), m.Queries)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		referenceKNNDistance(m, x, xt, queries)
	}
}

func BenchmarkKNNMeasureBatched3000(b *testing.B) {
	x, xt := benchKNNPair(3000, 64)
	m := &KNN{K: 5, Queries: 1000, Seed: 1, Workers: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Distance(x, xt)
	}
}

// knnMatchesReference fails unless m's distance on a fixed pair is
// bitwise the brute-force reference measure's.
func knnMatchesReference(t *testing.T, m *KNN) {
	t.Helper()
	x := randEmb(120, 12, 43)
	xt := perturb(x, 0.3, 44)
	queries := sampleIndices(rand.New(rand.NewSource(m.Seed)), x.Rows(), min(m.Queries, x.Rows()))
	if got, want := m.Distance(x, xt), referenceKNNDistance(m, x, xt, queries); got != want {
		t.Fatalf("%+v: distance %v, want reference %v", *m, got, want)
	}
}

// TestKNNANNCutoffRespected: the k-NN measure has no size cutoff; the
// paper's configuration (k=5, Appendix D.3, over 1000 query words) is the
// exact scan.
func TestKNNANNCutoffRespected(t *testing.T) {
	knnMatchesReference(t, &KNN{K: 5, Queries: 1000, Seed: 7})
}

// TestKNNANNRouteExactAtFullProbe: the registry's 1-knn factory builds
// the exact scan too, for every worker count.
func TestKNNANNRouteExactAtFullProbe(t *testing.T) {
	for _, workers := range []int{1, 4} {
		m, err := NewMeasure("1-knn", MeasureConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		knnMatchesReference(t, m.(*KNN))
	}
}
