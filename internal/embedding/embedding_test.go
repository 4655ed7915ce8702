package embedding

import (
	"math"
	"math/rand"
	"testing"

	"anchor/internal/matrix"
)

func randomEmbedding(n, d int, seed int64) *Embedding {
	rng := rand.New(rand.NewSource(seed))
	e := New(n, d)
	for i := range e.Vectors.Data {
		e.Vectors.Data[i] = rng.NormFloat64()
	}
	return e
}

func TestAlignToRecoversRotation(t *testing.T) {
	ref := randomEmbedding(30, 4, 3)
	// Rotate ref by a random orthogonal matrix; AlignTo must undo it.
	rng := rand.New(rand.NewSource(4))
	svd := matrix.ComputeSVDWorkers(matrix.NewDenseRand(4, 4, 1, rng), 0)
	rot := matrix.MulABTWorkers(svd.U, svd.V, 0)
	e := &Embedding{Vectors: matrix.MulWorkers(ref.Vectors, rot, 0)}
	e.AlignTo(ref, 0)
	diff := e.Vectors.Clone().Sub(ref.Vectors).FrobNorm()
	if diff > 1e-8 {
		t.Fatalf("alignment residual %v", diff)
	}
}

func TestAlignToNeverHurts(t *testing.T) {
	ref := randomEmbedding(20, 5, 5)
	e := randomEmbedding(20, 5, 6)
	before := e.Vectors.Clone().Sub(ref.Vectors).FrobNorm()
	e.AlignTo(ref, 0)
	after := e.Vectors.Clone().Sub(ref.Vectors).FrobNorm()
	if after > before+1e-9 {
		t.Fatalf("alignment increased distance: %v -> %v", before, after)
	}
}

func TestSubRows(t *testing.T) {
	e := randomEmbedding(5, 2, 7)
	e.Words = []string{"v", "w", "x", "y", "z"}
	s := e.SubRows([]int{3, 0})
	if s.Rows() != 2 || s.Words[0] != "y" || s.Words[1] != "v" {
		t.Fatalf("SubRows wrong: %+v", s.Words)
	}
	for j := 0; j < 2; j++ {
		if s.Vectors.At(0, j) != e.Vectors.At(3, j) {
			t.Fatal("SubRows vector mismatch")
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	e := randomEmbedding(3, 3, 9)
	c := e.Clone()
	c.Vectors.Set(0, 0, math.Pi)
	if e.Vectors.At(0, 0) == math.Pi {
		t.Fatal("Clone shares storage")
	}
}

func TestMetaString(t *testing.T) {
	m := Meta{Algorithm: "mc", Corpus: "wiki18", Dim: 64, Seed: 2, Precision: 8}
	if m.String() != "mc-wiki18-d64-s2-b8" {
		t.Fatalf("Meta.String = %q", m.String())
	}
}
