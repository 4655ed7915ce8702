package cooc

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"anchor/internal/corpus"
)

// tinyCorpus builds a corpus with hand-specified sentences over n words.
func tinyCorpus(n int, sents [][]int32) *corpus.Corpus {
	c := &corpus.Corpus{
		Vocab:  &corpus.Vocab{Words: make([]string, n), Index: map[string]int{}},
		Counts: make([]int64, n),
	}
	for _, s := range sents {
		c.Sentences = append(c.Sentences, s)
		for _, w := range s {
			c.Counts[w]++
			c.Tokens++
		}
	}
	return c
}

func find(m *Matrix, r, cl int32) (float64, bool) {
	if r > cl {
		r, cl = cl, r
	}
	for _, e := range m.Entries {
		if e.Row == r && e.Col == cl {
			return e.Val, true
		}
	}
	return 0, false
}

func TestCountWindowUniform(t *testing.T) {
	c := tinyCorpus(4, [][]int32{{0, 1, 2, 3}})
	m := Count(c, 2, Uniform)
	// Pairs within window 2: (0,1),(0,2),(1,2),(1,3),(2,3).
	cases := []struct {
		r, c int32
		want float64
	}{
		{0, 1, 1}, {0, 2, 1}, {1, 2, 1}, {1, 3, 1}, {2, 3, 1},
	}
	for _, cse := range cases {
		got, ok := find(m, cse.r, cse.c)
		if !ok || got != cse.want {
			t.Fatalf("count(%d,%d) = %v ok=%v, want %v", cse.r, cse.c, got, ok, cse.want)
		}
	}
	if _, ok := find(m, 0, 3); ok {
		t.Fatal("pair (0,3) outside window should be absent")
	}
}

func TestCountInverseDistance(t *testing.T) {
	c := tinyCorpus(3, [][]int32{{0, 1, 2}})
	m := Count(c, 2, InverseDistance)
	if v, _ := find(m, 0, 2); math.Abs(v-0.5) > 1e-12 {
		t.Fatalf("distance-2 weight = %v, want 0.5", v)
	}
	if v, _ := find(m, 0, 1); math.Abs(v-1) > 1e-12 {
		t.Fatalf("distance-1 weight = %v, want 1", v)
	}
}

func TestCountSymmetricAccumulation(t *testing.T) {
	// Word order reversed must produce the same unordered counts.
	a := Count(tinyCorpus(3, [][]int32{{0, 1}, {1, 0}}), 1, Uniform)
	if v, _ := find(a, 0, 1); v != 2 {
		t.Fatalf("accumulated count = %v, want 2", v)
	}
}

func TestCountDoesNotCrossSentences(t *testing.T) {
	c := tinyCorpus(2, [][]int32{{0}, {1}})
	m := Count(c, 5, Uniform)
	if m.NNZ() != 0 {
		t.Fatalf("no pairs expected across sentences, got %d", m.NNZ())
	}
}

func TestPPMIPositiveAndCorrect(t *testing.T) {
	// Corpus where words 0,1 always co-occur and 2,3 always co-occur.
	sents := [][]int32{}
	for i := 0; i < 20; i++ {
		sents = append(sents, []int32{0, 1}, []int32{2, 3})
	}
	// A couple of cross pairs to create low-PMI entries.
	sents = append(sents, []int32{0, 2})
	c := tinyCorpus(4, sents)
	m := Count(c, 1, Uniform)
	p := PPMI(m)
	v01, ok01 := find(p, 0, 1)
	if !ok01 || v01 <= 0 {
		t.Fatalf("PPMI(0,1) = %v, want > 0", v01)
	}
	v02, ok02 := find(p, 0, 2)
	// Rare cross pair: PMI should be much lower than the frequent pair
	// (it may be clipped away entirely).
	if ok02 && v02 >= v01 {
		t.Fatalf("PPMI(0,2)=%v should be below PPMI(0,1)=%v", v02, v01)
	}
	for _, e := range p.Entries {
		if e.Val <= 0 {
			t.Fatalf("PPMI entry (%d,%d)=%v not positive", e.Row, e.Col, e.Val)
		}
	}
}

func TestPPMIManualValue(t *testing.T) {
	// Single sentence {0,1}: one unordered pair. Symmetric interpretation:
	// total mass = 2, p(0,1) = 2/2 = 1, p(0) = p(1) = 1/2.
	// PMI = log(1 / (0.5*0.5)) = log 4.
	c := tinyCorpus(2, [][]int32{{0, 1}})
	p := PPMI(Count(c, 1, Uniform))
	v, ok := find(p, 0, 1)
	if !ok || math.Abs(v-math.Log(4)) > 1e-12 {
		t.Fatalf("PPMI = %v, want log(4)", v)
	}
}

func TestLogCounts(t *testing.T) {
	c := tinyCorpus(2, [][]int32{{0, 1}, {0, 1}, {0, 1}})
	m := Count(c, 1, Uniform)
	lc := LogCounts(m)
	v, _ := find(lc, 0, 1)
	if math.Abs(v-math.Log(4)) > 1e-12 {
		t.Fatalf("LogCounts = %v, want log(1+3)", v)
	}
}

func TestEntriesSorted(t *testing.T) {
	cfg := corpus.TestConfig()
	m := Count(corpus.Generate(cfg, corpus.Wiki17), 5, InverseDistance)
	for i := 1; i < len(m.Entries); i++ {
		a, b := m.Entries[i-1], m.Entries[i]
		if a.Row > b.Row || (a.Row == b.Row && a.Col >= b.Col) {
			t.Fatal("entries not strictly sorted")
		}
	}
	if m.NNZ() == 0 {
		t.Fatal("expected nonzero co-occurrence entries")
	}
}

func TestCountTotalWeightProperty(t *testing.T) {
	// With uniform weighting and window >= max sentence length, total
	// stored weight equals the number of unordered within-sentence pairs.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nWords := 2 + rng.Intn(6)
		var sents [][]int32
		wantPairs := 0.0
		for s := 0; s < 1+rng.Intn(5); s++ {
			n := 1 + rng.Intn(6)
			sent := make([]int32, n)
			for i := range sent {
				sent[i] = int32(rng.Intn(nWords))
			}
			sents = append(sents, sent)
			wantPairs += float64(n*(n-1)) / 2
		}
		m := Count(tinyCorpus(nWords, sents), 10, Uniform)
		var total float64
		for _, e := range m.Entries {
			total += e.Val
		}
		return math.Abs(total-wantPairs) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// densePPMI computes PPMI on a tiny corpus from first principles: a dense
// symmetric count matrix (unordered pairs mirrored off the diagonal, self
// pairs counted once on it), joint and marginal probabilities, then
// max(0, log(pij/(pi*pj))).
func densePPMI(n int, sents [][]int32, window int) ([][]float64, [][]float64, float64) {
	dense := make([][]float64, n)
	for i := range dense {
		dense[i] = make([]float64, n)
	}
	for _, sent := range sents {
		for i := 0; i < len(sent); i++ {
			lim := i + window
			if lim >= len(sent) {
				lim = len(sent) - 1
			}
			for j := i + 1; j <= lim; j++ {
				a, b := sent[i], sent[j]
				dense[a][b]++
				if a != b {
					dense[b][a]++
				}
			}
		}
	}
	var total float64
	rowSums := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			rowSums[i] += dense[i][j]
			total += dense[i][j]
		}
	}
	ppmi := make([][]float64, n)
	for i := range ppmi {
		ppmi[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			if dense[i][j] == 0 {
				continue
			}
			// Joint mass of the unordered pair {i,j}: both mirrored cells
			// off the diagonal, the single cell on it.
			pair := dense[i][j]
			if i != j {
				pair += dense[j][i]
			}
			v := math.Log((pair / total) / (rowSums[i] / total * rowSums[j] / total))
			if v > 0 {
				ppmi[i][j] = v
			}
		}
	}
	return ppmi, dense, total
}

// TestPPMIMassAccounting pins the sparse storage convention: the implied
// joint distribution (off-diagonal entries doubled, diagonal entries
// single) must sum to 1 over the same total mass a dense symmetric count
// matrix produces, and the resulting PPMI values must match a dense
// brute-force computation cell for cell.
func TestPPMIMassAccounting(t *testing.T) {
	// Repeats and self-co-occurrences included so diagonal entries exist.
	sents := [][]int32{
		{0, 1, 2, 0}, {3, 4, 3}, {1, 1, 2}, {0, 2, 2, 1}, {4, 0, 4},
	}
	const n, window = 5, 2
	c := tinyCorpus(n, sents)
	m := Count(c, window, Uniform)

	hasDiagonal := false
	for _, e := range m.Entries {
		if e.Row == e.Col {
			hasDiagonal = true
		}
	}
	if !hasDiagonal {
		t.Fatal("test corpus produced no diagonal entries; mass accounting untested")
	}

	wantPPMI, _, wantTotal := densePPMI(n, sents, window)

	// Implied joint distribution: off-diagonal doubled, diagonal single.
	var total, joint float64
	for _, e := range m.Entries {
		if e.Row != e.Col {
			total += 2 * e.Val
		} else {
			total += e.Val
		}
	}
	if math.Abs(total-wantTotal) > 1e-9 {
		t.Fatalf("sparse total mass %v, dense total mass %v", total, wantTotal)
	}
	for _, e := range m.Entries {
		cnt := e.Val
		if e.Row != e.Col {
			cnt *= 2
		}
		joint += cnt / total
	}
	if math.Abs(joint-1) > 1e-12 {
		t.Fatalf("implied joint distribution sums to %v, want 1", joint)
	}

	p := PPMI(m)
	for _, e := range p.Entries {
		if math.Abs(e.Val-wantPPMI[e.Row][e.Col]) > 1e-12 {
			t.Fatalf("PPMI(%d,%d) = %v, dense brute force %v", e.Row, e.Col, e.Val, wantPPMI[e.Row][e.Col])
		}
	}
	// Every positive dense cell must be present in the sparse result.
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			if wantPPMI[i][j] > 0 {
				if _, ok := find(p, int32(i), int32(j)); !ok {
					t.Fatalf("dense PPMI(%d,%d)=%v missing from sparse result", i, j, wantPPMI[i][j])
				}
			}
		}
	}
}

// TestCountWorkerInvariant checks the deterministic-parallelism contract:
// sharded counting must produce bitwise identical matrices for any worker
// count, including the sequential path.
func TestCountWorkerInvariant(t *testing.T) {
	c := corpus.Generate(corpus.TestConfig(), corpus.Wiki17)
	for _, w := range []Weighting{Uniform, InverseDistance} {
		ref := CountWorkers(c, 5, w, 1)
		for _, workers := range []int{2, 4, 8} {
			got := CountWorkers(c, 5, w, workers)
			if got.NNZ() != ref.NNZ() {
				t.Fatalf("weighting %d workers %d: nnz %d vs %d", w, workers, got.NNZ(), ref.NNZ())
			}
			for i := range ref.Entries {
				if got.Entries[i] != ref.Entries[i] {
					t.Fatalf("weighting %d workers %d: entry %d differs: %+v vs %+v",
						w, workers, i, got.Entries[i], ref.Entries[i])
				}
			}
		}
	}
}

func TestPPMISymmetricInputOrder(t *testing.T) {
	// PPMI must not depend on which member of an unordered pair appears
	// first in the corpus.
	a := PPMI(Count(tinyCorpus(3, [][]int32{{0, 1}, {1, 2}}), 1, Uniform))
	b := PPMI(Count(tinyCorpus(3, [][]int32{{1, 0}, {2, 1}}), 1, Uniform))
	if a.NNZ() != b.NNZ() {
		t.Fatalf("nnz differs: %d vs %d", a.NNZ(), b.NNZ())
	}
	for i := range a.Entries {
		if a.Entries[i] != b.Entries[i] {
			t.Fatalf("entry %d differs: %+v vs %+v", i, a.Entries[i], b.Entries[i])
		}
	}
}

// Shared counts a corpus once per (window, weighting): concurrent callers
// get one matrix, equal to CountWorkers', and other windows, weightings
// and corpora get their own.
func TestSharedCountsOncePerCorpusWindowWeighting(t *testing.T) {
	c := corpus.Generate(corpus.TestConfig(), corpus.Wiki17)
	got := make([]*Matrix, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = Shared(c, 5, Uniform, i)
		}()
	}
	wg.Wait()
	for _, m := range got[1:] {
		if m != got[0] {
			t.Fatal("concurrent callers got different matrices")
		}
	}
	if !reflect.DeepEqual(got[0], CountWorkers(c, 5, Uniform, 1)) {
		t.Fatal("shared counts differ from CountWorkers")
	}
	other := []*Matrix{
		Shared(c, 5, InverseDistance, 1),
		Shared(c, 3, Uniform, 1),
		Shared(corpus.Generate(corpus.TestConfig(), corpus.Wiki17), 5, Uniform, 1),
	}
	for i, m := range other {
		if m == got[0] {
			t.Errorf("key %d shares the (5, Uniform) matrix of another corpus or key", i)
		}
	}
}
