// Package sentiment implements the paper's sentiment analysis downstream
// tasks: synthetic analogues of the four binary classification datasets
// (SST-2, MR, Subj, MPQA from Kim 2014) plus the two downstream models
// trained on them — the linear bag-of-words model used throughout the
// paper and the CNN used in the robustness appendix (E.2).
//
// Dataset generation mirrors how sentiment is carried in natural corpora:
// positive and negative lexicons are drawn from disjoint topic groups of
// the synthetic corpus (so embedding geometry genuinely encodes the label
// signal), sentences mix lexicon words with topical/background filler, and
// a per-dataset noise rate flips lexicon words to the opposite polarity.
// The four datasets differ in size, sentence length, lexicon size, and
// noise, mirroring the difficulty spread of the real benchmarks.
//
// Each model trains down one path: the linear model on blocked
// count-matrix features (counts.go) and the CNN on lockstep minibatches
// through the fused pooling op, each on one arena tape reset per step.
// The tests keep per-example features and the unfused compositions as
// the oracles the trained weights must match bit for bit.
package sentiment

import (
	"fmt"
	"math/rand"
	"sync"

	"anchor/internal/corpus"
	"anchor/internal/matrix"
)

// Example is one labeled sentence.
type Example struct {
	Tokens []int32
	Label  int // 0 = negative, 1 = positive
}

// Dataset is a train/validation/test split plus the generating lexicons.
type Dataset struct {
	Name             string
	Train, Val, Test []Example
	PosLex, NegLex   []int32

	// Cached per-split bag-of-words count matrices (see counts.go),
	// indexed train/test. Built lazily, safe for concurrent use.
	countsOnce [2]sync.Once
	counts     [2]*matrix.Dense
}

// Params controls dataset generation.
type Params struct {
	Name           string
	TrainN, ValN   int
	TestN          int
	LenMin, LenMax int
	LexiconSize    int
	// SentProb is the probability a token is drawn from the label's lexicon.
	SentProb float64
	// NoiseProb flips a lexicon draw to the opposite polarity.
	NoiseProb float64
	Seed      int64
}

// SST2Params returns the SST-2 analogue (the paper's headline sentiment
// task): mid-sized, moderately noisy.
func SST2Params() Params {
	return Params{
		Name: "sst2", TrainN: 600, ValN: 100, TestN: 250,
		LenMin: 8, LenMax: 20, LexiconSize: 60,
		SentProb: 0.35, NoiseProb: 0.22, Seed: 1001,
	}
}

// MRParams returns the MR analogue: the noisiest dataset (the paper finds
// MR the least stable).
func MRParams() Params {
	return Params{
		Name: "mr", TrainN: 500, ValN: 80, TestN: 220,
		LenMin: 10, LenMax: 24, LexiconSize: 50,
		SentProb: 0.3, NoiseProb: 0.3, Seed: 2002,
	}
}

// SubjParams returns the Subj analogue: the cleanest dataset (the paper
// finds Subj the most stable).
func SubjParams() Params {
	return Params{
		Name: "subj", TrainN: 700, ValN: 100, TestN: 250,
		LenMin: 8, LenMax: 18, LexiconSize: 70,
		SentProb: 0.45, NoiseProb: 0.1, Seed: 3003,
	}
}

// MPQAParams returns the MPQA analogue: short phrases.
func MPQAParams() Params {
	return Params{
		Name: "mpqa", TrainN: 450, ValN: 70, TestN: 200,
		LenMin: 3, LenMax: 8, LexiconSize: 45,
		SentProb: 0.5, NoiseProb: 0.18, Seed: 4004,
	}
}

// AllParams returns the four sentiment task configurations in the paper's
// reporting order.
func AllParams() []Params {
	return []Params{SST2Params(), MRParams(), SubjParams(), MPQAParams()}
}

// ParamsByName resolves a sentiment task name ("sst2", "mr", "subj",
// "mpqa") to its generation parameters. It is the single name switch for
// sentiment tasks; unknown names return an error listing the known ones.
func ParamsByName(name string) (Params, error) {
	for _, p := range AllParams() {
		if p.Name == name {
			return p, nil
		}
	}
	known := make([]string, 0, 4)
	for _, p := range AllParams() {
		known = append(known, p.Name)
	}
	return Params{}, fmt.Errorf("sentiment: unknown task %q (known: %v)", name, known)
}

// Generate builds the dataset from a corpus snapshot. The corpus supplies
// word frequencies (fillers are frequency-weighted) and the latent topic
// structure (lexicons come from disjoint topic groups so the label is
// linearly recoverable from embedding geometry).
func Generate(c *corpus.Corpus, ccfg corpus.Config, p Params) *Dataset {
	rng := rand.New(rand.NewSource(p.Seed))

	// Candidate words: frequent enough to have good embeddings, skipping
	// the very top ranks (those act as stopword filler).
	top := c.TopWords(ccfg.VocabSize)
	band := top[20:min(len(top), 20+12*p.LexiconSize)]

	half := ccfg.NumTopics / 2
	var pos, neg []int32
	for _, w := range band {
		t := corpus.PrimaryTopic(ccfg, w, corpus.Wiki17)
		if t < half && len(pos) < p.LexiconSize {
			pos = append(pos, int32(w))
		} else if t >= half && len(neg) < p.LexiconSize {
			neg = append(neg, int32(w))
		}
		if len(pos) == p.LexiconSize && len(neg) == p.LexiconSize {
			break
		}
	}

	// Filler distribution: the corpus's most frequent words.
	filler := top[:200]

	gen := func(n int) []Example {
		out := make([]Example, n)
		for i := range out {
			label := i % 2 // balanced
			length := p.LenMin + rng.Intn(p.LenMax-p.LenMin+1)
			toks := make([]int32, length)
			for j := range toks {
				if rng.Float64() < p.SentProb {
					lex := pos
					if label == 0 {
						lex = neg
					}
					if rng.Float64() < p.NoiseProb {
						if label == 0 {
							lex = pos
						} else {
							lex = neg
						}
					}
					toks[j] = lex[rng.Intn(len(lex))]
				} else {
					toks[j] = int32(filler[rng.Intn(len(filler))])
				}
			}
			out[i] = Example{Tokens: toks, Label: label}
		}
		rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
		return out
	}

	return &Dataset{
		Name:   p.Name,
		Train:  gen(p.TrainN),
		Val:    gen(p.ValN),
		Test:   gen(p.TestN),
		PosLex: pos,
		NegLex: neg,
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
