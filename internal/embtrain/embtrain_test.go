package embtrain

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"anchor/internal/cooc"
	"anchor/internal/corpus"
	"anchor/internal/embedding"
	"anchor/internal/floats"
	"anchor/internal/registry"
)

func testCorpus(t *testing.T, year corpus.Year) *corpus.Corpus {
	t.Helper()
	return corpus.Generate(corpus.TestConfig(), year)
}

// topicSeparation computes the average cosine similarity between words of
// the same topic minus the average between words of different topics,
// restricted to frequent words so rarely updated vectors don't dominate.
func topicSeparation(t *testing.T, e *embedding.Embedding, c *corpus.Corpus, cfg corpus.Config) float64 {
	t.Helper()
	top := c.TopWords(150)
	rng := rand.New(rand.NewSource(99))
	var same, diff []float64
	for trial := 0; trial < 4000; trial++ {
		a := top[rng.Intn(len(top))]
		b := top[rng.Intn(len(top))]
		if a == b {
			continue
		}
		sim := floats.CosineSim(e.Vector(a), e.Vector(b))
		if corpus.PrimaryTopic(cfg, a, c.Year) == corpus.PrimaryTopic(cfg, b, c.Year) {
			same = append(same, sim)
		} else {
			diff = append(diff, sim)
		}
	}
	if len(same) < 20 || len(diff) < 20 {
		t.Fatalf("not enough pairs: same=%d diff=%d", len(same), len(diff))
	}
	return floats.Mean(same) - floats.Mean(diff)
}

func checkLearnsTopics(t *testing.T, tr Trainer) {
	t.Helper()
	cfg := corpus.TestConfig()
	c := testCorpus(t, corpus.Wiki17)
	e := tr.Train(c, 16, 1)
	if e.Rows() != cfg.VocabSize || e.Dim() != 16 {
		t.Fatalf("shape %dx%d", e.Rows(), e.Dim())
	}
	sep := topicSeparation(t, e, c, cfg)
	if sep < 0.05 {
		t.Fatalf("%s: embeddings did not learn topic structure: separation=%.4f", tr.Name(), sep)
	}
	t.Logf("%s topic separation: %.4f", tr.Name(), sep)
}

func TestCBOWLearnsTopics(t *testing.T)     { checkLearnsTopics(t, NewCBOW()) }
func TestGloVeLearnsTopics(t *testing.T)    { checkLearnsTopics(t, NewGloVe()) }
func TestMCLearnsTopics(t *testing.T)       { checkLearnsTopics(t, NewMC()) }
func TestFastTextLearnsTopics(t *testing.T) { checkLearnsTopics(t, NewFastText()) }

func checkDeterministic(t *testing.T, tr Trainer) {
	t.Helper()
	c := testCorpus(t, corpus.Wiki17)
	a := tr.Train(c, 8, 7)
	b := tr.Train(c, 8, 7)
	for i := range a.Vectors.Data {
		if a.Vectors.Data[i] != b.Vectors.Data[i] {
			t.Fatalf("%s: training not deterministic at %d", tr.Name(), i)
		}
	}
}

func TestCBOWDeterministic(t *testing.T)     { checkDeterministic(t, NewCBOW()) }
func TestGloVeDeterministic(t *testing.T)    { checkDeterministic(t, NewGloVe()) }
func TestMCDeterministic(t *testing.T)       { checkDeterministic(t, NewMC()) }
func TestFastTextDeterministic(t *testing.T) { checkDeterministic(t, NewFastText()) }

// checkWorkerInvariance is the acceptance property of the deterministic
// parallel engine: embeddings must be bitwise identical no matter how many
// workers execute the fixed shards.
func checkWorkerInvariance(t *testing.T, mk func(workers int) Trainer) {
	t.Helper()
	c := testCorpus(t, corpus.Wiki17)
	a := mk(1).Train(c, 8, 7)
	b := mk(4).Train(c, 8, 7)
	if a.Meta.Algorithm != b.Meta.Algorithm {
		t.Fatal("trainer factory returned mismatched algorithms")
	}
	for i := range a.Vectors.Data {
		if a.Vectors.Data[i] != b.Vectors.Data[i] {
			t.Fatalf("%s: Workers=1 and Workers=4 diverge at %d: %v vs %v",
				a.Meta.Algorithm, i, a.Vectors.Data[i], b.Vectors.Data[i])
		}
	}
}

func TestCBOWWorkerInvariant(t *testing.T) {
	checkWorkerInvariance(t, func(w int) Trainer { tr := NewCBOW(); tr.Workers = w; return tr })
}

func TestGloVeWorkerInvariant(t *testing.T) {
	checkWorkerInvariance(t, func(w int) Trainer { tr := NewGloVe(); tr.Workers = w; return tr })
}

func TestMCWorkerInvariant(t *testing.T) {
	checkWorkerInvariance(t, func(w int) Trainer { tr := NewMC(); tr.Workers = w; return tr })
}

func TestFastTextWorkerInvariant(t *testing.T) {
	checkWorkerInvariance(t, func(w int) Trainer { tr := NewFastText(); tr.Workers = w; return tr })
}

// Two MC trainings on one corpus share one PPMI matrix: the first derives
// it, and the second (another dim, seed and worker budget) reads it rather
// than transforming the counts again. With the shared counts emptied
// after the first training, the second still matches a training on a
// fresh corpus.
func TestMCTrainingsSharePPMI(t *testing.T) {
	c, fresh := testCorpus(t, corpus.Wiki17), testCorpus(t, corpus.Wiki17)
	first, second := NewMC(), NewMC()
	first.Epochs, second.Epochs = 2, 2
	first.Workers, second.Workers = 1, 4
	first.Train(c, 8, 1)
	m := cooc.SharedPPMI(c, first.Window, cooc.Uniform, 1)
	cooc.Shared(c, first.Window, cooc.Uniform, 1).Entries = nil
	got := second.Train(c, 16, 2)
	if cooc.SharedPPMI(c, second.Window, cooc.Uniform, 4) != m {
		t.Fatal("the second training replaced the shared PPMI matrix")
	}
	want := second.Train(fresh, 16, 2)
	for i := range want.Vectors.Data {
		if got.Vectors.Data[i] != want.Vectors.Data[i] {
			t.Fatalf("second training differs from a fresh-corpus training at %d", i)
		}
	}
}

func TestLookupSetsWorkers(t *testing.T) {
	tr, err := Lookup("cbow", 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.(*CBOW).Workers; got != 3 {
		t.Fatalf("Workers = %d, want 3", got)
	}
}

func TestSeedChangesEmbedding(t *testing.T) {
	c := testCorpus(t, corpus.Wiki17)
	tr := NewCBOW()
	a := tr.Train(c, 8, 1)
	b := tr.Train(c, 8, 2)
	same := true
	for i := range a.Vectors.Data {
		if a.Vectors.Data[i] != b.Vectors.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical embeddings")
	}
}

func TestMetaRecorded(t *testing.T) {
	c := testCorpus(t, corpus.Wiki18)
	for _, name := range []string{"cbow", "glove", "mc", "fasttext"} {
		tr, err := Lookup(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		e := tr.Train(c, 8, 3)
		m := e.Meta
		if m.Algorithm != name || m.Corpus != "wiki18" || m.Dim != 8 || m.Seed != 3 || m.Precision != 32 {
			t.Fatalf("meta wrong: %+v", m)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	var unknown *registry.UnknownError
	if _, err := Lookup("elmo", 0); !errors.As(err, &unknown) {
		t.Fatalf("err = %v, want *registry.UnknownError", err)
	}
}

func TestUnigramTableFavorsFrequent(t *testing.T) {
	counts := []int64{1000, 10, 0, 10}
	tab := newUnigramTable(counts, 0.75)
	rng := rand.New(rand.NewSource(1))
	draws := make([]int, len(counts))
	for i := 0; i < 20000; i++ {
		draws[tab.sample(rng)]++
	}
	if draws[0] <= draws[1] || draws[0] <= draws[3] {
		t.Fatalf("frequent word undersampled: %v", draws)
	}
	if draws[2] > 0 {
		t.Fatalf("zero-count word sampled %d times", draws[2])
	}
}

// TestUnigramTableCoversTailWords is the tail-handling regression test:
// every word with a nonzero count must be reachable as a negative sample.
// Under extreme skew the classic word2vec cumulative fill advances at most
// one word per table slot and runs out of slots before the tail, dropping
// those words from the table entirely.
func TestUnigramTableCoversTailWords(t *testing.T) {
	counts := make([]int64, 50)
	counts[0] = 1 << 40
	for i := 1; i < len(counts); i++ {
		counts[i] = 1
	}
	tab := newUnigramTable(counts, 0.75)
	present := make(map[int32]bool)
	for _, w := range tab.table {
		present[w] = true
	}
	for w, c := range counts {
		if c > 0 && !present[int32(w)] {
			t.Errorf("word %d (count %d) unreachable in negative-sampling table", w, c)
		}
	}
	if len(tab.table) > unigramTableSize+len(counts) {
		t.Fatalf("table overgrew: %d slots for %d words", len(tab.table), len(counts))
	}
}

// TestUnigramTableProportions checks the fill still tracks count^power for
// non-degenerate distributions: slot shares must be close to the exact
// normalized weights.
func TestUnigramTableProportions(t *testing.T) {
	counts := []int64{1000, 300, 100, 30, 10}
	power := 0.75
	tab := newUnigramTable(counts, power)
	var z float64
	for _, c := range counts {
		z += math.Pow(float64(c), power)
	}
	slots := make([]int, len(counts))
	for _, w := range tab.table {
		slots[w]++
	}
	for w, c := range counts {
		want := math.Pow(float64(c), power) / z
		got := float64(slots[w]) / float64(len(tab.table))
		if math.Abs(got-want) > 1e-3 {
			t.Fatalf("word %d slot share %.5f, want %.5f", w, got, want)
		}
	}
}

func TestUnigramTableAllZero(t *testing.T) {
	tab := newUnigramTable([]int64{0, 0}, 0.75)
	rng := rand.New(rand.NewSource(1))
	if got := tab.sample(rng); got != 0 {
		t.Fatalf("degenerate table sample = %d", got)
	}
}

func TestSigmoid(t *testing.T) {
	if sigmoid(0) != 0.5 {
		t.Fatal("sigmoid(0) != 0.5")
	}
	if sigmoid(100) != 1 || sigmoid(-100) != 0 {
		t.Fatal("sigmoid clamping wrong")
	}
}

func TestSubwordsSharedAcrossFamily(t *testing.T) {
	ft := NewFastText()
	a := ft.Subwords("kubona")
	b := ft.Subwords("kubonas")
	inA := map[int32]bool{}
	for _, g := range a {
		inA[g] = true
	}
	shared := 0
	for _, g := range b {
		if inA[g] {
			shared++
		}
	}
	if shared < 3 {
		t.Fatalf("morphological relatives share too few subwords: %d", shared)
	}
}

// TestWikiPairSimilarButDifferent is the core property the whole paper
// rests on: embeddings from the two snapshots are close after alignment
// but not identical.
func TestWikiPairSimilarButDifferent(t *testing.T) {
	c17 := testCorpus(t, corpus.Wiki17)
	c18 := testCorpus(t, corpus.Wiki18)
	tr := NewMC()
	e17 := tr.Train(c17, 16, 1)
	e18 := tr.Train(c18, 16, 1)
	e18.AlignTo(e17, 0)

	top := c17.TopWords(100)
	var sims []float64
	for _, w := range top {
		sims = append(sims, floats.CosineSim(e17.Vector(w), e18.Vector(w)))
	}
	mean := floats.Mean(sims)
	if mean < 0.5 {
		t.Fatalf("pair too different after alignment: mean cos %.3f", mean)
	}
	if mean > 0.9999 {
		t.Fatalf("pair suspiciously identical: mean cos %.5f", mean)
	}
	t.Logf("mean aligned cosine similarity: %.4f", mean)
}
