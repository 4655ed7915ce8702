package sentiment

import (
	"anchor/internal/embedding"
	"anchor/internal/floats"
	"anchor/internal/matrix"
)

// Bag-of-words feature pipeline. The canonical features of an example are
// its token counts times the embedding matrix, averaged over sentence
// length — computed grid-wide as ONE blocked count-matrix × embedding
// product per (dataset split, embedding) pair instead of per-token scalar
// loops inside every TrainLinearBOW call. The count matrix depends only on
// the dataset, so it is built once and cached on the Dataset; every grid
// cell then pays a single matrix product per split.
//
// Determinism: the blocked kernel accumulates each feature element over
// ascending word ids with a single accumulator, skipping zero counts (see
// matrix/kernels.go), so Features is bitwise identical for every worker
// count to a per-example loop that adds each distinct word's
// count-weighted vector in ascending id order (the oracle the tests keep).

// countMatrix returns the bag-of-words count matrix of the examples: row i
// holds the token counts of example i, with one column per word id up to
// the largest id among them.
func countMatrix(examples []Example) *matrix.Dense {
	maxID := int32(-1)
	for _, ex := range examples {
		for _, tk := range ex.Tokens {
			maxID = max(maxID, tk)
		}
	}
	m := matrix.NewDense(len(examples), int(maxID)+1)
	for i, ex := range examples {
		row := m.Row(i)
		for _, tk := range ex.Tokens {
			row[tk]++
		}
	}
	return m
}

// splitCounts lazily builds and caches the count matrix of one split.
func (d *Dataset) splitCounts(which int, examples []Example) *matrix.Dense {
	d.countsOnce[which].Do(func() { d.counts[which] = countMatrix(examples) })
	return d.counts[which]
}

// TrainCounts returns the cached count matrix of the training split.
func (d *Dataset) TrainCounts() *matrix.Dense { return d.splitCounts(0, d.Train) }

// TestCounts returns the cached count matrix of the test split.
func (d *Dataset) TestCounts() *matrix.Dense { return d.splitCounts(1, d.Test) }

// Features returns the averaged-embedding bag-of-words features of the
// examples as one blocked count-matrix × embedding product (counts must be
// the split's count matrix for those examples). The result is bitwise
// identical for every worker count.
func Features(emb *embedding.Embedding, counts *matrix.Dense, examples []Example, workers int) *matrix.Dense {
	d := emb.Dim()
	// View of the first counts.Cols embedding rows — the only ones the
	// split's vocabulary can touch — without copying.
	sub := matrix.NewDenseData(counts.Cols, d, emb.Vectors.Data[:counts.Cols*d])
	f := matrix.MulWorkers(counts, sub, workers)
	for i, ex := range examples {
		if len(ex.Tokens) > 0 {
			floats.Scale(1/float64(len(ex.Tokens)), f.Row(i))
		}
	}
	return f
}
