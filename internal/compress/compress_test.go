package compress

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"anchor/internal/embedding"
)

func randomEmbedding(n, d int, seed int64) *embedding.Embedding {
	rng := rand.New(rand.NewSource(seed))
	e := embedding.New(n, d)
	for i := range e.Vectors.Data {
		e.Vectors.Data[i] = rng.NormFloat64()
	}
	return e
}

func TestQuantizeValueCount(t *testing.T) {
	e := randomEmbedding(50, 10, 1)
	for _, bits := range []int{1, 2, 4, 8} {
		clip := OptimalClipWorkers(e.Vectors.Data, bits, 0)
		q := QuantizeWorkers(e, bits, clip, 0)
		distinct := map[float64]bool{}
		for _, v := range q.Vectors.Data {
			distinct[v] = true
		}
		if len(distinct) > 1<<uint(bits) {
			t.Fatalf("bits=%d: %d distinct values > 2^b", bits, len(distinct))
		}
		if q.Meta.Precision != bits {
			t.Fatalf("precision not recorded: %d", q.Meta.Precision)
		}
	}
}

func TestQuantizeFullPrecisionIsIdentity(t *testing.T) {
	e := randomEmbedding(10, 4, 2)
	q := QuantizeWorkers(e, 32, 1, 0)
	for i := range e.Vectors.Data {
		if q.Vectors.Data[i] != e.Vectors.Data[i] {
			t.Fatal("32-bit quantization must be identity")
		}
	}
	if q.Meta.Precision != FullPrecision {
		t.Fatal("precision should be 32")
	}
}

func TestQuantizeIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		e := randomEmbedding(20, 5, seed)
		for _, bits := range []int{1, 2, 4, 8} {
			clip := OptimalClipWorkers(e.Vectors.Data, bits, 0)
			q1 := QuantizeWorkers(e, bits, clip, 0)
			q2 := QuantizeWorkers(q1, bits, clip, 0)
			for i := range q1.Vectors.Data {
				if math.Abs(q1.Vectors.Data[i]-q2.Vectors.Data[i]) > 1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizeErrorBounded(t *testing.T) {
	// Within the clip interval, quantization error is at most step/2.
	e := randomEmbedding(100, 8, 3)
	bits := 4
	clip := OptimalClipWorkers(e.Vectors.Data, bits, 0)
	step := 2 * clip / float64((int64(1)<<uint(bits))-1)
	q := QuantizeWorkers(e, bits, clip, 0)
	// Levels are float32-rounded, which can shift each one by up to
	// 2^-24·clip; 1e-7 absorbs that on top of the ideal-grid bound.
	for i, v := range e.Vectors.Data {
		if math.Abs(v) <= clip {
			if math.Abs(v-q.Vectors.Data[i]) > step/2+1e-7 {
				t.Fatalf("error %v exceeds step/2=%v", math.Abs(v-q.Vectors.Data[i]), step/2)
			}
		} else if math.Abs(q.Vectors.Data[i]) > clip+1e-7 {
			t.Fatal("clipped value outside [-clip, clip]")
		}
	}
}

func TestMorePrecisionLowerMSE(t *testing.T) {
	e := randomEmbedding(200, 10, 4)
	prev := math.Inf(1)
	for _, bits := range []int{1, 2, 4, 8, 16} {
		clip := OptimalClipWorkers(e.Vectors.Data, bits, 0)
		q := QuantizeWorkers(e, bits, clip, 0)
		var mse float64
		for i := range e.Vectors.Data {
			d := e.Vectors.Data[i] - q.Vectors.Data[i]
			mse += d * d
		}
		if mse >= prev {
			t.Fatalf("MSE did not decrease at %d bits: %v >= %v", bits, mse, prev)
		}
		prev = mse
	}
}

func TestQuantizePairSharesClip(t *testing.T) {
	x := randomEmbedding(50, 6, 5)
	y := randomEmbedding(50, 6, 6)
	qx, qy := QuantizePair(x, y, 2)
	// All values of qy must come from qx's level set (shared clip).
	levelsX := map[float64]bool{}
	for _, v := range qx.Vectors.Data {
		levelsX[v] = true
	}
	clip := OptimalClipWorkers(x.Vectors.Data, 2, 0)
	for _, lvl := range Levels(clip, 2) {
		levelsX[lvl] = true
	}
	for _, v := range qy.Vectors.Data {
		if !levelsX[v] {
			t.Fatalf("value %v of second embedding not on shared grid", v)
		}
	}
}

func TestQuantizePairFullPrecision(t *testing.T) {
	x := randomEmbedding(5, 3, 7)
	y := randomEmbedding(5, 3, 8)
	qx, qy := QuantizePair(x, y, 32)
	if qx.Meta.Precision != 32 || qy.Meta.Precision != 32 {
		t.Fatal("full precision pair should record 32 bits")
	}
	for i := range x.Vectors.Data {
		if qx.Vectors.Data[i] != x.Vectors.Data[i] || qy.Vectors.Data[i] != y.Vectors.Data[i] {
			t.Fatal("full precision pair should be identity")
		}
	}
}

func TestOptimalClipZeroData(t *testing.T) {
	if c := OptimalClipWorkers(make([]float64, 10), 4, 0); c != 1 {
		t.Fatalf("zero data clip = %v, want fallback 1", c)
	}
}

func TestLevelsSymmetric(t *testing.T) {
	lv := Levels(1, 2)
	want := []float64{-1, -1.0 / 3, 1.0 / 3, 1}
	if len(lv) != 4 {
		t.Fatalf("levels = %v", lv)
	}
	for i := range want {
		// Levels are rounded to the nearest float32 (so quantized values
		// are exactly float32-representable), hence the ~1e-8 tolerance
		// on -1/3 instead of 1e-12.
		if math.Abs(lv[i]-want[i]) > 1e-7 {
			t.Fatalf("levels = %v, want %v", lv, want)
		}
		if lv[i] != float64(float32(lv[i])) {
			t.Fatalf("level %v not float32-representable", lv[i])
		}
	}
}

func TestOneBitIsSignQuantization(t *testing.T) {
	e := embedding.New(1, 4)
	copy(e.Vectors.Data, []float64{-2, -0.1, 0.1, 2})
	q := QuantizeWorkers(e, 1, 1, 0)
	want := []float64{-1, -1, 1, 1}
	for i := range want {
		if q.Vectors.Data[i] != want[i] {
			t.Fatalf("1-bit quantization = %v, want %v", q.Vectors.Data, want)
		}
	}
}

func TestQuantizeInvalidBitsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bits < 1")
		}
	}()
	QuantizeWorkers(randomEmbedding(2, 2, 9), 0, 1, 0)
}
