package embtrain

import (
	"math"
	"testing"

	"anchor/internal/corpus"
)

// TestNoDivergenceAcrossDims guards every trainer against numerical
// divergence across the dimension ladder (the failure mode is silent NaN
// embeddings that turn downstream disagreement into meaningless zeros).
func TestNoDivergenceAcrossDims(t *testing.T) {
	ccfg := corpus.DefaultConfig()
	ccfg.VocabSize = 600
	ccfg.NumDocs = 300
	c := corpus.Generate(ccfg, corpus.Wiki17)
	for _, name := range []string{"cbow", "glove", "mc", "fasttext"} {
		tr, err := Lookup(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, dim := range []int{8, 32, 128} {
			e := tr.Train(c, dim, 1)
			for _, v := range e.Vectors.Data {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s dim=%d: training diverged (non-finite values)", name, dim)
				}
			}
			if sep := topicSeparation(t, e, c, ccfg); sep < 0.03 {
				t.Fatalf("%s dim=%d: separation %.4f too low", name, dim, sep)
			}
		}
	}
}
