package floats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDotAxpyScale(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	if got := Dot(x, y); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
	Axpy(2, x, y)
	want := []float64{6, 9, 12}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("Axpy got %v want %v", y, want)
		}
	}
	Scale(0.5, y)
	want = []float64{3, 4.5, 6}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("Scale got %v want %v", y, want)
		}
	}
}

func TestNorms(t *testing.T) {
	x := []float64{3, -4}
	if Norm(x) != 5 {
		t.Fatalf("Norm = %v", Norm(x))
	}
}

func TestNormalize(t *testing.T) {
	x := []float64{3, 4}
	n := Normalize(x)
	if n != 5 || math.Abs(Norm(x)-1) > 1e-15 {
		t.Fatalf("Normalize: n=%v norm=%v", n, Norm(x))
	}
	z := []float64{0, 0}
	if Normalize(z) != 0 {
		t.Fatal("Normalize of zero vector should return 0")
	}
}

func TestCosine(t *testing.T) {
	if CosineSim([]float64{1, 0}, []float64{0, 1}) != 0 {
		t.Fatal("orthogonal cosine should be 0")
	}
	if math.Abs(CosineSim([]float64{2, 0}, []float64{5, 0})-1) > 1e-15 {
		t.Fatal("parallel cosine should be 1")
	}
	if CosineDist([]float64{1, 0}, []float64{-1, 0}) != 2 {
		t.Fatal("antipodal cosine dist should be 2")
	}
	if CosineSim([]float64{0, 0}, []float64{1, 2}) != 0 {
		t.Fatal("zero vector cosine defined as 0")
	}
}

func TestCosineSimBoundedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		c := CosineSim(x, y)
		return c >= -1-1e-12 && c <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSumMeanStd(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Sum(x) != 40 {
		t.Fatal("Sum wrong")
	}
	if Mean(x) != 5 {
		t.Fatal("Mean wrong")
	}
	if Mean(nil) != 0 {
		t.Fatal("degenerate Mean wrong")
	}
}

func TestMinMaxArgMax(t *testing.T) {
	x := []float64{3, -1, 7, 7, 2}
	if Max(x) != 7 || ArgMax(x) != 2 {
		t.Fatalf("Max/ArgMax wrong: %v %v", Max(x), ArgMax(x))
	}
}

func TestQuantile(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := QuantileSorted(x, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("QuantileSorted(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestLogSumExp(t *testing.T) {
	x := []float64{math.Log(1), math.Log(2), math.Log(3)}
	if got := LogSumExp(x); math.Abs(got-math.Log(6)) > 1e-12 {
		t.Fatalf("LogSumExp = %v, want log(6)", got)
	}
	// Stability at large magnitudes.
	big := []float64{1000, 1000}
	if got := LogSumExp(big); math.Abs(got-(1000+math.Log(2))) > 1e-9 {
		t.Fatalf("LogSumExp large = %v", got)
	}
	if !math.IsInf(LogSumExp(nil), -1) {
		t.Fatal("LogSumExp(empty) should be -Inf")
	}
}

func TestSoftmaxSumsToOne(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() * 10
		}
		dst := make([]float64, n)
		Softmax(dst, x)
		var s float64
		for _, v := range dst {
			if v < 0 || v > 1 {
				return false
			}
			s += v
		}
		return math.Abs(s-1) < 1e-10
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxPreservesOrder(t *testing.T) {
	x := []float64{1, 3, 2}
	dst := make([]float64, 3)
	Softmax(dst, x)
	if !(dst[1] > dst[2] && dst[2] > dst[0]) {
		t.Fatalf("Softmax order violated: %v", dst)
	}
}

func TestMismatchedLengthsPanic(t *testing.T) {
	for name, f := range map[string]func(){
		"Dot":  func() { Dot([]float64{1}, []float64{1, 2}) },
		"Axpy": func() { Axpy(1, []float64{1}, []float64{1, 2}) },
		"Add":  func() { Add([]float64{1}, []float64{1, 2}) },
		"Sub":  func() { Sub([]float64{1}, []float64{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}
