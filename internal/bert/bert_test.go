package bert

import (
	"math/rand"
	"sync"
	"testing"

	"anchor/internal/corpus"
	"anchor/internal/matrix"
)

// Encode returns the frozen last-layer hidden states for a sentence
// (truncated to SeqLen).
func (m *Model) Encode(tokens []int32) *matrix.Dense {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.encodeFrozen(tokens).Clone()
}

// MLMLoss evaluates the average masked-LM loss over up to maxSentences
// corpus sentences (deterministic masking), for convergence tests.
func (m *Model) MLMLoss(c *corpus.Corpus, maxSentences int, seed int64) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	tp := m.tape
	rng := rand.New(rand.NewSource(seed))
	var total float64
	count := 0
	for si := 0; si < len(c.Sentences) && count < maxSentences; si++ {
		sent := c.Sentences[si]
		n := len(sent)
		if n > m.Cfg.SeqLen {
			n = m.Cfg.SeqLen
		}
		if n < 2 {
			continue
		}
		tokens := make([]int, n)
		for i := 0; i < n; i++ {
			tokens[i] = int(sent[i])
		}
		pos := rng.Intn(n)
		target := tokens[pos]
		tokens[pos] = m.VocabSize
		tp.Reset()
		hidden := m.encode(tp, tokens)
		masked := tp.GatherRows(hidden, []int{pos})
		loss := tp.CrossEntropy(m.mlmOut.Forward(tp, masked), []int{target})
		total += loss.Value.At(0, 0)
		count++
	}
	if count == 0 {
		return 0
	}
	return total / float64(count)
}

func pretrainTiny(t *testing.T, seed int64) (*Model, *corpus.Corpus) {
	t.Helper()
	ccfg := corpus.TestConfig()
	c := corpus.Generate(ccfg, corpus.Wiki17)
	cfg := DefaultConfig(16, seed)
	cfg.Epochs = 1
	cfg.SubsampleFrac = 0.15
	return Pretrain(c, cfg), c
}

func TestPretrainReducesMLMLoss(t *testing.T) {
	ccfg := corpus.TestConfig()
	c := corpus.Generate(ccfg, corpus.Wiki17)
	cfg := DefaultConfig(16, 1)
	cfg.Epochs = 0 // untrained baseline
	cfg.SubsampleFrac = 0.15
	untrained := Pretrain(c, cfg)
	base := untrained.MLMLoss(c, 40, 9)

	cfg.Epochs = 2
	trained := Pretrain(c, cfg)
	after := trained.MLMLoss(c, 40, 9)
	if after >= base {
		t.Fatalf("MLM loss did not improve: %.3f -> %.3f", base, after)
	}
	t.Logf("MLM loss: %.3f -> %.3f", base, after)
}

func TestEncodeShapeAndTruncation(t *testing.T) {
	m, c := pretrainTiny(t, 2)
	sent := c.Sentences[0]
	h := m.Encode(sent)
	wantRows := len(sent)
	if wantRows > m.Cfg.SeqLen {
		wantRows = m.Cfg.SeqLen
	}
	if h.Rows != wantRows || h.Cols != 16 {
		t.Fatalf("Encode shape %dx%d", h.Rows, h.Cols)
	}
	long := make([]int32, 50)
	if got := m.Encode(long); got.Rows != m.Cfg.SeqLen {
		t.Fatalf("truncation failed: %d rows", got.Rows)
	}
}

func TestEncodeContextSensitivity(t *testing.T) {
	// The representation of token 0 must depend on its context — that is
	// what makes the embedding contextual.
	m, _ := pretrainTiny(t, 3)
	a := m.Encode([]int32{5, 7, 9})
	b := m.Encode([]int32{5, 8, 2})
	same := true
	for j := 0; j < m.Cfg.Hidden; j++ {
		if a.At(0, j) != b.At(0, j) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("token representation insensitive to context")
	}
}

func TestSentenceFeatureDeterministic(t *testing.T) {
	m, c := pretrainTiny(t, 4)
	f1 := m.SentenceFeature(c.Sentences[1])
	f2 := m.SentenceFeature(c.Sentences[1])
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatal("feature extraction not deterministic")
		}
	}
	if len(f1) != 16 {
		t.Fatalf("feature length %d", len(f1))
	}
}

func TestPretrainDeterministicAcrossRuns(t *testing.T) {
	a, c := pretrainTiny(t, 5)
	b, _ := pretrainTiny(t, 5)
	fa := a.SentenceFeature(c.Sentences[0])
	fb := b.SentenceFeature(c.Sentences[0])
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatal("pre-training not deterministic")
		}
	}
}

func TestSeedChangesModel(t *testing.T) {
	a, c := pretrainTiny(t, 6)
	b, _ := pretrainTiny(t, 7)
	fa := a.SentenceFeature(c.Sentences[0])
	fb := b.SentenceFeature(c.Sentences[0])
	same := true
	for i := range fa {
		if fa[i] != fb[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds gave identical models")
	}
}

func TestEncodeConcurrentCallsMatchSerial(t *testing.T) {
	// Encode, SentenceFeature and MLMLoss share the model's one tape; calls
	// from several goroutines must serialize on it and return what serial
	// calls return.
	m, c := pretrainTiny(t, 8)
	const n = 6
	want := make([][]float64, n)
	for i := range want {
		want[i] = m.SentenceFeature(c.Sentences[i])
	}
	wantLoss := m.MLMLoss(c, 10, 3)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range want {
				got := m.SentenceFeature(c.Sentences[i])
				h := m.Encode(c.Sentences[i])
				for j := range got {
					if got[j] != want[i][j] {
						t.Errorf("sentence %d feature %d: concurrent %v != serial %v", i, j, got[j], want[i][j])
						return
					}
				}
				if h.Rows != min(len(c.Sentences[i]), m.Cfg.SeqLen) {
					t.Errorf("sentence %d: Encode returned %d rows", i, h.Rows)
					return
				}
			}
			if got := m.MLMLoss(c, 10, 3); got != wantLoss {
				t.Errorf("concurrent MLM loss %v != serial %v", got, wantLoss)
			}
		}()
	}
	wg.Wait()
}
