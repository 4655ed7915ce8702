// Package corpus synthesizes the textual corpora anchor trains embeddings
// on. The paper uses two full Wikipedia dumps collected a year apart
// (Wiki'17 and Wiki'18); offline we reproduce the property that matters —
// two large corpora that are statistically almost identical except for a
// small temporal drift — with a seeded topic-mixture language model:
//
//   - a Zipf-distributed background vocabulary,
//   - K topics, each a Zipf distribution over its own word subset,
//   - documents that mix one or two topics with the background,
//   - morphologically structured word strings (stem+suffix families) so
//     subword models (fastText) have real signal.
//
// The Wiki'18 analogue is derived from the Wiki'17 generator by perturbing
// the topic prior, reassigning a small fraction of words to new topics,
// regenerating a small fraction of documents, and appending ~1% extra
// documents — the same kinds of small changes that distinguish two
// consecutive Wikipedia snapshots.
package corpus

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
)

// Year identifies which corpus snapshot to generate.
type Year int

// The two snapshots studied in the paper.
const (
	Wiki17 Year = 2017
	Wiki18 Year = 2018
)

// Drift controls how the Wiki'18 snapshot differs from Wiki'17.
type Drift struct {
	// TopicPriorShift is the relative perturbation applied to each topic's
	// prior probability (±shift, deterministic per topic).
	TopicPriorShift float64
	// DocResampleFrac is the fraction of documents regenerated from an
	// independent random stream.
	DocResampleFrac float64
	// ExtraDocsFrac is the fraction of additional documents appended
	// (the paper observes instability from "just 1% more data").
	ExtraDocsFrac float64
	// WordShiftFrac is the fraction of words whose primary topic changes
	// (usage drift).
	WordShiftFrac float64
}

// DefaultDrift mirrors the magnitude of change between two Wikipedia
// snapshots a year apart: small but pervasive.
func DefaultDrift() Drift {
	return Drift{
		TopicPriorShift: 0.08,
		DocResampleFrac: 0.03,
		ExtraDocsFrac:   0.01,
		WordShiftFrac:   0.02,
	}
}

// Config parameterizes the synthetic corpus generator. The same Config
// with the same Year always produces the identical corpus.
type Config struct {
	VocabSize  int     // number of word types
	NumTopics  int     // number of latent topics
	NumDocs    int     // documents in the Wiki'17 snapshot
	SentPerDoc int     // average sentences per document
	SentLenMin int     // minimum tokens per sentence
	SentLenMax int     // maximum tokens per sentence
	TopicMix   float64 // probability a token is drawn from the document topic(s) rather than background
	ZipfExp    float64 // Zipf exponent for word frequency decay
	Seed       int64   // base seed; shared between the two snapshots
	Drift      Drift   // how Wiki'18 differs from Wiki'17
}

// DefaultConfig returns the repro-scale configuration: large enough that
// embeddings capture topic structure, small enough for laptop runs.
func DefaultConfig() Config {
	return Config{
		VocabSize:  1500,
		NumTopics:  20,
		NumDocs:    700,
		SentPerDoc: 8,
		SentLenMin: 6,
		SentLenMax: 18,
		TopicMix:   0.65,
		ZipfExp:    1.0,
		Seed:       42,
		Drift:      DefaultDrift(),
	}
}

// TestConfig returns a miniature configuration for unit tests.
func TestConfig() Config {
	c := DefaultConfig()
	c.VocabSize = 400
	c.NumTopics = 8
	c.NumDocs = 150
	return c
}

// Vocab is the shared word inventory. Word IDs are stable across the two
// snapshots, so embedding row i always refers to the same word.
type Vocab struct {
	Words []string
	Index map[string]int
}

// Size returns the number of word types.
func (v *Vocab) Size() int { return len(v.Words) }

// Corpus is a generated snapshot: tokenized sentences over a shared vocab.
// A corpus is fixed once built: statistics derived from it (Derive) are
// computed once and shared, so its fields must not change afterwards.
type Corpus struct {
	Year      Year
	Vocab     *Vocab
	Sentences [][]int32
	Counts    []int64 // token count per word id
	Tokens    int64   // total token count
	Docs      int     // number of documents generated

	derivedMu sync.Mutex
	derived   map[any]*derivedStat
}

// derivedStat is one memoized Derive result.
type derivedStat struct {
	once sync.Once
	v    any
}

// Derive returns the statistic build computes from c, calling build at
// most once per (corpus, key): every later or concurrent call with an
// equal key waits for and shares the first result, which lives as long as
// the corpus does. Callers must treat the result as read-only. key must be
// comparable; a key of a type unexported from the caller's package cannot
// collide with another package's statistics.
func Derive[T any](c *Corpus, key any, build func() T) T {
	c.derivedMu.Lock()
	st, ok := c.derived[key]
	if !ok {
		if c.derived == nil {
			c.derived = map[any]*derivedStat{}
		}
		st = &derivedStat{}
		c.derived[key] = st
	}
	c.derivedMu.Unlock()
	st.once.Do(func() { st.v = build() })
	return st.v.(T)
}

// splitmix64 is the deterministic hash used for all per-item decisions,
// so drift choices are reproducible and independent of Go's rand stream.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func hashFloat(x uint64) float64 { // uniform in [0,1)
	return float64(splitmix64(x)>>11) / float64(1<<53)
}

// BuildVocab constructs the morphologically structured word inventory for
// cfg. Words come in families sharing a stem ("kubona", "kubonas",
// "kubonaing", ...), giving subword models genuine shared structure.
func BuildVocab(cfg Config) *Vocab {
	consonants := []string{"b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z"}
	vowels := []string{"a", "e", "i", "o", "u"}
	suffixes := []string{"", "s", "ed", "ing", "ly", "er"}

	syllable := func(i uint64) string {
		h := splitmix64(i)
		return consonants[h%uint64(len(consonants))] + vowels[(h>>8)%uint64(len(vowels))]
	}
	words := make([]string, 0, cfg.VocabSize)
	seen := map[string]bool{}
	stem := 0
	for len(words) < cfg.VocabSize {
		base := syllable(uint64(cfg.Seed)+uint64(stem)*3) +
			syllable(uint64(cfg.Seed)+uint64(stem)*3+1) +
			syllable(uint64(cfg.Seed)+uint64(stem)*3+2)
		for _, suf := range suffixes {
			w := base + suf
			if !seen[w] {
				seen[w] = true
				words = append(words, w)
				if len(words) == cfg.VocabSize {
					break
				}
			}
		}
		stem++
	}
	idx := make(map[string]int, len(words))
	for i, w := range words {
		idx[w] = i
	}
	return &Vocab{Words: words, Index: idx}
}

// yearParams holds the fully resolved generative parameters for one
// snapshot: cumulative distributions for the background and each topic,
// and the topic prior CDF.
type yearParams struct {
	topicCDF   []float64   // CDF over topics
	background []float64   // CDF over all words
	topicWords [][]int32   // word ids per topic
	topicDists [][]float64 // CDF over topicWords[k]
}

// primaryTopic returns the topic a word belongs to in the given year,
// applying the WordShiftFrac usage drift for Wiki'18.
func primaryTopic(cfg Config, w int, year Year) int {
	base := int(splitmix64(uint64(cfg.Seed)*31+uint64(w)) % uint64(cfg.NumTopics))
	if year == Wiki18 && hashFloat(uint64(cfg.Seed)*77+uint64(w)) < cfg.Drift.WordShiftFrac {
		shift := 1 + int(splitmix64(uint64(cfg.Seed)*101+uint64(w))%uint64(cfg.NumTopics-1))
		return (base + shift) % cfg.NumTopics
	}
	return base
}

// zipfCDF builds a CDF where item i (in rank order given by perm) has
// weight 1/(rank+2.7)^exp.
func zipfCDF(n int, exp float64, rankOf func(i int) int) []float64 {
	cdf := make([]float64, n)
	var sum float64
	for i := 0; i < n; i++ {
		w := 1 / math.Pow(float64(rankOf(i))+2.7, exp)
		sum += w
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

func buildParams(cfg Config, year Year) *yearParams {
	p := &yearParams{}

	// Frequency ranks: a seeded permutation of word ids.
	rankPerm := rand.New(rand.NewSource(cfg.Seed + 7)).Perm(cfg.VocabSize)
	rankOf := make([]int, cfg.VocabSize)
	for rank, w := range rankPerm {
		rankOf[w] = rank
	}
	p.background = zipfCDF(cfg.VocabSize, cfg.ZipfExp, func(i int) int { return rankOf[i] })

	// Topic membership (year-dependent via usage drift).
	p.topicWords = make([][]int32, cfg.NumTopics)
	for w := 0; w < cfg.VocabSize; w++ {
		k := primaryTopic(cfg, w, year)
		p.topicWords[k] = append(p.topicWords[k], int32(w))
	}
	p.topicDists = make([][]float64, cfg.NumTopics)
	for k := range p.topicWords {
		words := p.topicWords[k]
		if len(words) == 0 {
			p.topicDists[k] = nil
			continue
		}
		// Within-topic Zipf, ordered by global rank so frequent words stay frequent.
		sort.Slice(words, func(a, b int) bool { return rankOf[words[a]] < rankOf[words[b]] })
		p.topicDists[k] = zipfCDF(len(words), cfg.ZipfExp, func(i int) int { return i })
	}

	// Topic prior: Zipf over topics, perturbed for Wiki'18.
	prior := make([]float64, cfg.NumTopics)
	var sum float64
	for k := range prior {
		w := 1 / math.Pow(float64(k)+2, 0.5)
		if year == Wiki18 {
			g := 2*hashFloat(uint64(cfg.Seed)*13+uint64(k)) - 1
			w *= 1 + cfg.Drift.TopicPriorShift*g
		}
		sum += w
		prior[k] = sum
	}
	p.topicCDF = prior
	for k := range p.topicCDF {
		p.topicCDF[k] /= sum
	}
	return p
}

func sampleCDF(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Generate produces the snapshot for the given year. Identical inputs
// always yield the identical corpus.
func Generate(cfg Config, year Year) *Corpus {
	if cfg.VocabSize < cfg.NumTopics {
		panic(fmt.Sprintf("corpus: vocab size %d < topics %d", cfg.VocabSize, cfg.NumTopics))
	}
	vocab := BuildVocab(cfg)
	params := buildParams(cfg, year)

	numDocs := cfg.NumDocs
	if year == Wiki18 {
		numDocs = int(float64(cfg.NumDocs) * (1 + cfg.Drift.ExtraDocsFrac))
	}

	c := &Corpus{Year: year, Vocab: vocab, Counts: make([]int64, cfg.VocabSize), Docs: numDocs}
	for doc := 0; doc < numDocs; doc++ {
		docSeed := int64(splitmix64(uint64(cfg.Seed)<<20 + uint64(doc)))
		if year == Wiki18 && hashFloat(uint64(cfg.Seed)*997+uint64(doc)) < cfg.Drift.DocResampleFrac {
			docSeed = int64(splitmix64(uint64(docSeed) ^ 0xD0C5A17))
		}
		rng := rand.New(rand.NewSource(docSeed))

		// One or two topics per document.
		t1 := sampleCDF(params.topicCDF, rng.Float64())
		t2 := sampleCDF(params.topicCDF, rng.Float64())
		nSent := cfg.SentPerDoc/2 + rng.Intn(cfg.SentPerDoc+1)
		for s := 0; s < nSent; s++ {
			n := cfg.SentLenMin + rng.Intn(cfg.SentLenMax-cfg.SentLenMin+1)
			sent := make([]int32, n)
			for i := 0; i < n; i++ {
				var w int32
				if rng.Float64() < cfg.TopicMix {
					k := t1
					if rng.Float64() < 0.3 {
						k = t2
					}
					words := params.topicWords[k]
					if len(words) == 0 {
						w = int32(sampleCDF(params.background, rng.Float64()))
					} else {
						w = words[sampleCDF(params.topicDists[k], rng.Float64())]
					}
				} else {
					w = int32(sampleCDF(params.background, rng.Float64()))
				}
				sent[i] = w
				c.Counts[w]++
				c.Tokens++
			}
			c.Sentences = append(c.Sentences, sent)
		}
	}
	return c
}

// TopWords returns the ids of the k most frequent words in the corpus
// (ties broken by id). The paper computes all embedding distance measures
// over the top-10k most frequent words; this is the analogous selector.
func (c *Corpus) TopWords(k int) []int {
	ids := make([]int, len(c.Counts))
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool {
		if c.Counts[ids[a]] != c.Counts[ids[b]] {
			return c.Counts[ids[a]] > c.Counts[ids[b]]
		}
		return ids[a] < ids[b]
	})
	if k > len(ids) {
		k = len(ids)
	}
	return ids[:k]
}

// PrimaryTopic exposes the latent topic of a word in a given year. The
// downstream task generators use it to construct learnable datasets
// (sentiment lexicons and NER gazetteers aligned with topic structure).
func PrimaryTopic(cfg Config, word int, year Year) int { return primaryTopic(cfg, word, year) }
