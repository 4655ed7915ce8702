// Package compress implements the uniform quantization scheme the paper
// uses to control embedding precision (Section 2.3, Appendix C.2, after
// May et al. 2019's "smallfry"). Each entry is clipped to [-c, c] and
// rounded deterministically to one of 2^b equally spaced values, so it can
// be stored with b bits. Two stability-relevant details from the paper are
// preserved:
//
//   - the clipping threshold c is chosen by minimizing quantization MSE on
//     the FIRST embedding of a pair and reused for the second, avoiding a
//     spurious source of instability;
//   - rounding is deterministic (round-to-nearest), not stochastic.
//
// Quantized levels are additionally rounded to the nearest float32, so
// every quantized value is exactly float32-representable. That invariant
// is what lets the storage layer auto-pick a narrower lossless element
// kind and the query engine serve quantized rows through float32/LUT
// kernels while staying bitwise faithful to the artifact.
//
// The package is under the repository's bitwise determinism contract:
// every exported function returns identical bits for every worker count.
// Parallelism only ever splits work whose per-element results are
// independent (element-wise maps, one grid candidate per task); each
// reduction keeps its serial accumulation order.
package compress

import (
	"math"
	"sort"

	"anchor/internal/embedding"
	"anchor/internal/floats"
	"anchor/internal/parallel"
)

// FullPrecision is the number of bits that means "no compression".
const FullPrecision = 32

// clipGrid is the quantile grid OptimalClipWorkers searches, in search order.
var clipGrid = [...]float64{0.5, 0.75, 0.9, 0.95, 0.99, 0.995, 0.999, 1.0}

// parMinLen is the input size below which element-wise passes stay
// serial; goroutine overhead dominates under it. Depending only on the
// input length keeps the parallel/serial split deterministic.
const parMinLen = 1 << 12

// OptimalClipWorkers returns the clipping threshold that minimizes the
// mean squared quantization error of uniform b-bit quantization on data,
// searched over a grid of quantiles of |data|, on at most workers
// goroutines (workers <= 0 means all CPUs). Each grid candidate's MSE
// pass keeps the serial single-accumulator order and candidates are
// compared in fixed grid order afterwards, so parallelism across
// candidates cannot change the chosen clip.
func OptimalClipWorkers(data []float64, bits, workers int) float64 {
	abs := make([]float64, len(data))
	ranges := parallel.Ranges(len(data), elemShards(len(data), workers))
	parallel.Run(workers, len(ranges), func(s int) {
		r := ranges[s]
		for i := r.Lo; i < r.Hi; i++ {
			abs[i] = math.Abs(data[i])
		}
	}, nil)
	maxAbs := floats.Max(abs)
	if maxAbs == 0 {
		return 1
	}
	sort.Float64s(abs)
	clips := make([]float64, len(clipGrid))
	mses := make([]float64, len(clipGrid))
	parallel.Run(workers, len(clipGrid), func(s int) {
		clip := floats.QuantileSorted(abs, clipGrid[s])
		clips[s], mses[s] = clip, math.Inf(1)
		if clip > 0 {
			mses[s] = quantMSE(data, clip, bits)
		}
	}, nil)
	bestClip, bestMSE := maxAbs, math.Inf(1)
	for s := range clipGrid {
		if clips[s] <= 0 {
			continue
		}
		if mses[s] < bestMSE {
			bestMSE, bestClip = mses[s], clips[s]
		}
	}
	return bestClip
}

func quantMSE(data []float64, clip float64, bits int) float64 {
	var mse float64
	for _, v := range data {
		q := quantizeValue(v, clip, bits)
		d := v - q
		mse += d * d
	}
	return mse / float64(len(data))
}

// quantizeValue rounds v to the nearest of 2^bits equally spaced values in
// [-clip, clip], with the level itself rounded to the nearest float32.
func quantizeValue(v, clip float64, bits int) float64 {
	levels := float64(int64(1) << uint(bits)) // 2^b
	if v > clip {
		v = clip
	} else if v < -clip {
		v = -clip
	}
	// Map [-clip, clip] onto [0, levels-1], round, map back.
	// For 1 bit (two levels) this degenerates to sign quantization at ±clip.
	step := 2 * clip / (levels - 1)
	idx := math.Round((v + clip) / step)
	if idx < 0 {
		idx = 0
	}
	max := levels - 1
	if idx > max {
		idx = max
	}
	// The float32 rounding shifts each level by at most 2^-24·clip, far
	// below the quantization step for every b <= 24, so requantizing a
	// quantized value is still exact (idempotence) while every output
	// becomes exactly float32-representable.
	return float64(float32(idx*step - clip))
}

// QuantizeValuesWorkers quantizes data in place to the given number of
// bits with the given clip, on at most workers goroutines (workers <= 0
// means all CPUs); bits >= 32 leaves the data unchanged. It is the raw
// primitive behind QuantizeWorkers, exported for non-word-embedding
// matrices (knowledge graph embeddings, BERT features). Every element
// maps independently to its own slot, so the result is bitwise identical
// for every worker count.
func QuantizeValuesWorkers(data []float64, bits int, clip float64, workers int) {
	if bits >= FullPrecision {
		return
	}
	if bits < 1 {
		panic("compress: bits must be >= 1")
	}
	ranges := parallel.Ranges(len(data), elemShards(len(data), workers))
	parallel.Run(workers, len(ranges), func(s int) {
		r := ranges[s]
		for i := r.Lo; i < r.Hi; i++ {
			data[i] = quantizeValue(data[i], clip, bits)
		}
	}, nil)
}

// elemShards picks the shard count for an element-wise pass: serial for
// tiny inputs, one shard per worker otherwise.
func elemShards(n, workers int) int {
	if n < parMinLen {
		return 1
	}
	return parallel.Workers(workers)
}

// QuantizeWorkers returns a copy of e uniformly quantized to the given
// number of bits using clip as the clipping threshold, on at most workers
// goroutines (workers <= 0 means all CPUs); the result is bitwise
// identical for every worker count. bits == 32 returns an unmodified copy
// (full precision). The returned embedding records the precision and clip
// in its Meta.
func QuantizeWorkers(e *embedding.Embedding, bits int, clip float64, workers int) *embedding.Embedding {
	out := e.Clone()
	out.Meta.Precision = bits
	out.Meta.Clip = 0
	if bits >= FullPrecision {
		out.Meta.Precision = FullPrecision
		return out
	}
	out.Meta.Clip = clip
	QuantizeValuesWorkers(out.Vectors.Data, bits, clip, workers)
	return out
}

// QuantizePair compresses a Wiki'17/Wiki'18 embedding pair to the given
// precision, computing the MSE-optimal clip on x and sharing it with
// xTilde exactly as the paper prescribes.
func QuantizePair(x, xTilde *embedding.Embedding, bits int) (*embedding.Embedding, *embedding.Embedding) {
	return QuantizePairWorkers(x, xTilde, bits, 0)
}

// QuantizePairWorkers is QuantizePair with an explicit worker bound
// (workers <= 0 means all CPUs); the result is bitwise identical for
// every worker count.
func QuantizePairWorkers(x, xTilde *embedding.Embedding, bits, workers int) (*embedding.Embedding, *embedding.Embedding) {
	if bits >= FullPrecision {
		qx, qy := x.Clone(), xTilde.Clone()
		qx.Meta.Precision, qy.Meta.Precision = FullPrecision, FullPrecision
		return qx, qy
	}
	clip := OptimalClipWorkers(x.Vectors.Data, bits, workers)
	return QuantizeWorkers(x, bits, clip, workers), QuantizeWorkers(xTilde, bits, clip, workers)
}

// Levels returns the set of representable values for the given clip and
// bit width (each rounded to the nearest float32, matching QuantizeWorkers),
// ascending. A quantized artifact's values are exactly these levels,
// which is what the code-matrix storage kind and the LUT scoring kernel
// decode through.
func Levels(clip float64, bits int) []float64 {
	n := int64(1) << uint(bits)
	step := 2 * clip / float64(n-1)
	out := make([]float64, n)
	for i := int64(0); i < n; i++ {
		out[i] = float64(float32(float64(i)*step - clip))
	}
	return out
}

// Grid returns the decode levels of a b<=8-bit quantized artifact with
// metadata m, Levels(m.Clip, m.Precision), or nil when m describes no
// such quantization: a precision outside 1..8, a clip that is not finite
// and positive, or a clip so small that rounding to float32 merges
// levels. It is the one test of whether an artifact can be held as
// packed codes, shared by the storage layer's writer and reader and the
// query engine's snapshot load; an artifact is packed only when every
// value also lies on the returned grid.
func Grid(m embedding.Meta) []float64 {
	if m.Precision < 1 || m.Precision > 8 || !(m.Clip > 0) || math.IsInf(m.Clip, 0) {
		return nil
	}
	levels := Levels(m.Clip, m.Precision)
	for i := 1; i < len(levels); i++ {
		if !(levels[i] > levels[i-1]) {
			return nil
		}
	}
	return levels
}
