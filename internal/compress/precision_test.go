package compress

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"anchor/internal/floats"
)

// serialOptimalClip is the retained pre-parallel reference: the exact
// grid-search loop OptimalClip ran before it was sharded, kept here so
// the worker-invariance test pins "bitwise identical to serial" rather
// than only "identical to itself".
func serialOptimalClip(data []float64, bits int) float64 {
	abs := make([]float64, len(data))
	for i, v := range data {
		abs[i] = math.Abs(v)
	}
	maxAbs := floats.Max(abs)
	if maxAbs == 0 {
		return 1
	}
	sort.Float64s(abs)
	bestClip, bestMSE := maxAbs, math.Inf(1)
	for _, q := range clipGrid {
		clip := floats.QuantileSorted(abs, q)
		if clip <= 0 {
			continue
		}
		mse := quantMSE(data, clip, bits)
		if mse < bestMSE {
			bestMSE, bestClip = mse, clip
		}
	}
	return bestClip
}

func randomData(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	data := make([]float64, n)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	return data
}

func TestOptimalClipWorkerInvariance(t *testing.T) {
	// Large enough to engage the parallel path (parMinLen elements).
	data := randomData(3*parMinLen+17, 11)
	for _, bits := range []int{1, 4, 8} {
		want := serialOptimalClip(data, bits)
		for _, workers := range []int{1, 2, 3, 7, 16} {
			got := OptimalClipWorkers(data, bits, workers)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("bits=%d workers=%d: clip %v != serial %v", bits, workers, got, want)
			}
		}
	}
}

func TestQuantizeValuesWorkerInvariance(t *testing.T) {
	data := randomData(2*parMinLen+5, 12)
	for _, bits := range []int{1, 4, 8} {
		clip := OptimalClipWorkers(data, bits, 0)
		want := append([]float64(nil), data...)
		for i, v := range want {
			want[i] = quantizeValue(v, clip, bits)
		}
		for _, workers := range []int{1, 2, 3, 7, 16} {
			got := append([]float64(nil), data...)
			QuantizeValuesWorkers(got, bits, clip, workers)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("bits=%d workers=%d: element %d differs", bits, workers, i)
				}
			}
		}
	}
}

// TestQuantizeFloat32Representable is the invariant the storage layer's
// lossless-kind auto-pick and the float32/LUT serving kernels rely on:
// every value a b<=8 quantization produces survives a float64->float32->
// float64 round trip exactly.
func TestQuantizeFloat32Representable(t *testing.T) {
	f := func(seed int64, rawBits uint8) bool {
		bits := int(rawBits%8) + 1 // 1..8
		data := randomData(257, seed)
		clip := OptimalClipWorkers(data, bits, 0)
		QuantizeValuesWorkers(data, bits, clip, 0)
		for _, v := range data {
			if v != float64(float32(v)) {
				return false
			}
		}
		// The level table itself must agree with the quantized values.
		lv := Levels(clip, bits)
		for _, l := range lv {
			if l != float64(float32(l)) {
				return false
			}
		}
		for _, v := range data {
			i := sort.SearchFloat64s(lv, v)
			if i >= len(lv) || lv[i] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizeRecordsClip(t *testing.T) {
	e := randomEmbedding(30, 8, 21)
	clip := OptimalClipWorkers(e.Vectors.Data, 4, 0)
	q := QuantizeWorkers(e, 4, clip, 0)
	if q.Meta.Clip != clip {
		t.Fatalf("Meta.Clip = %v, want %v", q.Meta.Clip, clip)
	}
	full := QuantizeWorkers(e, 32, clip, 0)
	if full.Meta.Clip != 0 {
		t.Fatalf("full-precision Meta.Clip = %v, want 0", full.Meta.Clip)
	}
	qx, qy := QuantizePair(e, randomEmbedding(30, 8, 22), 2)
	if qx.Meta.Clip == 0 || qx.Meta.Clip != qy.Meta.Clip {
		t.Fatalf("pair clips %v, %v: want equal and nonzero", qx.Meta.Clip, qy.Meta.Clip)
	}
}

func TestQuantizePairWorkerInvariance(t *testing.T) {
	x := randomEmbedding(80, 64, 23) // 5120 elements > parMinLen
	y := randomEmbedding(80, 64, 24)
	wx, wy := QuantizePairWorkers(x, y, 4, 1)
	for _, workers := range []int{2, 5, 16} {
		gx, gy := QuantizePairWorkers(x, y, 4, workers)
		for i := range wx.Vectors.Data {
			if math.Float64bits(gx.Vectors.Data[i]) != math.Float64bits(wx.Vectors.Data[i]) ||
				math.Float64bits(gy.Vectors.Data[i]) != math.Float64bits(wy.Vectors.Data[i]) {
				t.Fatalf("workers=%d: pair element %d differs", workers, i)
			}
		}
	}
}
