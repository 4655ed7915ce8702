// Package cooc builds word co-occurrence statistics from a corpus: windowed
// co-occurrence counts (with GloVe-style 1/distance or uniform weighting)
// and the positive pointwise mutual information (PPMI) transform that the
// matrix-completion embedding algorithm factorizes (Bullinaria & Levy 2007).
package cooc

import (
	"math"
	"sort"

	"anchor/internal/corpus"
	"anchor/internal/parallel"
)

// Weighting selects how a co-occurrence at distance k within the window
// contributes to the count.
type Weighting int

// Supported weightings.
const (
	// Uniform counts every co-occurrence within the window as 1
	// (word2vec-style after window subsampling).
	Uniform Weighting = iota
	// InverseDistance counts a co-occurrence at distance k as 1/k
	// (GloVe-style).
	InverseDistance
)

// Matrix is a sparse symmetric co-occurrence (or PPMI) matrix in triplet
// form, sorted by (row, col). Only entries with Row <= Col are stored for
// counts built by Count; Entries lists every stored cell.
type Matrix struct {
	N       int // vocabulary size
	Entries []Entry
}

// Entry is one stored cell of a sparse matrix.
type Entry struct {
	Row, Col int32
	Val      float64
}

// NNZ returns the number of stored entries.
func (m *Matrix) NNZ() int { return len(m.Entries) }

// countsKey identifies one counting of a corpus for corpus.Derive.
type countsKey struct {
	window int
	w      Weighting
}

// Shared returns c's windowed co-occurrence counts (as CountWorkers
// computes them), counted once per (corpus, window, weighting) and shared
// by every caller for as long as the corpus lives, so trainings on one
// corpus never recount it. The matrix is read-only. workers bounds the counting
// goroutines and, as for CountWorkers, never changes the result.
func Shared(c *corpus.Corpus, window int, w Weighting, workers int) *Matrix {
	return corpus.Derive(c, countsKey{window, w}, func() *Matrix {
		return CountWorkers(c, window, w, workers)
	})
}

// ppmiKey identifies one PPMI transform of a counting for corpus.Derive.
type ppmiKey countsKey

// SharedPPMI returns PPMI(Shared(c, window, w, workers)), derived once per
// (corpus, window, weighting) and shared like Shared's counts, so
// trainings on one corpus never redo the transform. The matrix is
// read-only.
func SharedPPMI(c *corpus.Corpus, window int, w Weighting, workers int) *Matrix {
	return corpus.Derive(c, ppmiKey{window, w}, func() *Matrix {
		return PPMI(Shared(c, window, w, workers))
	})
}

// CountWorkers accumulates windowed co-occurrence counts over the corpus
// on at most workers goroutines (workers <= 0 selects all CPUs).
// Co-occurrences are symmetric; each unordered pair is stored once with
// Row <= Col and carries the summed weight of both directions. Sentences
// are partitioned into a fixed number of shards; each shard accumulates
// into its own map and the per-shard maps are merged in ascending shard
// order, so for every key the summation order — and therefore the result
// — is bitwise identical for any worker count.
func CountWorkers(c *corpus.Corpus, window int, w Weighting, workers int) *Matrix {
	key := func(i, j int32) uint64 {
		if i > j {
			i, j = j, i
		}
		return uint64(uint32(i))<<32 | uint64(uint32(j))
	}
	shards := parallel.DefaultShards
	ranges := parallel.Ranges(len(c.Sentences), shards)
	accs := make([]map[uint64]float64, shards)
	acc := make(map[uint64]float64)
	parallel.Run(workers, shards, func(s int) {
		local := make(map[uint64]float64)
		for _, sent := range c.Sentences[ranges[s].Lo:ranges[s].Hi] {
			for i := 0; i < len(sent); i++ {
				lim := i + window
				if lim >= len(sent) {
					lim = len(sent) - 1
				}
				for j := i + 1; j <= lim; j++ {
					weight := 1.0
					if w == InverseDistance {
						weight = 1 / float64(j-i)
					}
					local[key(sent[i], sent[j])] += weight
				}
			}
		}
		accs[s] = local
	}, func(s int) {
		for k, v := range accs[s] {
			acc[k] += v
		}
	})
	m := &Matrix{N: c.Vocab.Size(), Entries: make([]Entry, 0, len(acc))}
	for k, v := range acc {
		m.Entries = append(m.Entries, Entry{Row: int32(k >> 32), Col: int32(uint32(k)), Val: v})
	}
	sort.Slice(m.Entries, func(a, b int) bool {
		if m.Entries[a].Row != m.Entries[b].Row {
			return m.Entries[a].Row < m.Entries[b].Row
		}
		return m.Entries[a].Col < m.Entries[b].Col
	})
	return m
}

// PPMI transforms co-occurrence counts into positive pointwise mutual
// information: max(0, log(p(i,j) / (p(i) p(j)))). Zero-valued results are
// dropped, so the output remains sparse. The input stores each unordered
// pair once (Row <= Col) and is interpreted symmetrically.
func PPMI(m *Matrix) *Matrix {
	rowSums := make([]float64, m.N)
	var total float64
	for _, e := range m.Entries {
		rowSums[e.Row] += e.Val
		total += e.Val
		if e.Row != e.Col {
			rowSums[e.Col] += e.Val
			total += e.Val
		}
	}
	out := &Matrix{N: m.N}
	for _, e := range m.Entries {
		cnt := e.Val
		if e.Row != e.Col {
			cnt *= 2 // symmetric mass for an unordered pair
		}
		pij := cnt / total
		pi := rowSums[e.Row] / total
		pj := rowSums[e.Col] / total
		v := math.Log(pij / (pi * pj))
		if v > 0 {
			out.Entries = append(out.Entries, Entry{Row: e.Row, Col: e.Col, Val: v})
		}
	}
	return out
}
