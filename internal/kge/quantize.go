package kge

import (
	"anchor/internal/compress"
	"anchor/internal/matrix"
)

func quantizeDense(m *matrix.Dense, bits int, clip float64, workers int) *matrix.Dense {
	out := m.Clone()
	compress.QuantizeValuesWorkers(out.Data, bits, clip, workers)
	return out
}

// QuantizePair compresses a pair of TransE models (trained on FB15K-95 and
// FB15K) to the given precision. As with word embeddings, the clipping
// thresholds are computed on the first model and shared with the second to
// avoid a spurious source of instability; entity and relation matrices get
// independent clips. Unlike word embeddings, the pair is NOT Procrustes-
// aligned first (the paper found alignment hurts KGE quality, Appendix C.5).
// workers bounds the goroutines of the clip search and the quantization
// (<= 0 selects all CPUs); the result is identical for every worker count.
func QuantizePair(a, b *TransE, bits, workers int) (*TransE, *TransE) {
	if bits >= compress.FullPrecision {
		return a.Quantize(bits, 0, 0, workers), b.Quantize(bits, 0, 0, workers)
	}
	entClip := compress.OptimalClipWorkers(a.Entity.Data, bits, workers)
	relClip := compress.OptimalClipWorkers(a.Relation.Data, bits, workers)
	return a.Quantize(bits, entClip, relClip, workers), b.Quantize(bits, entClip, relClip, workers)
}
