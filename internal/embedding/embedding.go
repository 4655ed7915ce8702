// Package embedding defines the embedding container shared by every
// trainer and consumer in anchor: a dense matrix of word vectors tied to a
// vocabulary, with orthogonal Procrustes alignment (the paper aligns every
// Wiki'17/Wiki'18 pair before compressing and training downstream models)
// and frequency-based row slicing. Its one serialized form is
// internal/store's binary artifact format.
package embedding

import (
	"fmt"

	"anchor/internal/matrix"
)

// Embedding is a vocabulary-aligned word embedding matrix. Row i is the
// vector for word id i; the id space is shared across corpus snapshots so
// rows of two embeddings are directly comparable.
type Embedding struct {
	// Vectors is the n-by-d matrix of word vectors.
	Vectors *matrix.Dense
	// Words maps row -> word string (may be nil when only ids matter).
	Words []string
	// Meta records how the embedding was produced.
	Meta Meta
}

// Meta describes an embedding's provenance, used for caching and reporting.
type Meta struct {
	Algorithm string // "cbow", "glove", "mc", "fasttext"
	Corpus    string // e.g. "wiki17"
	Dim       int
	Seed      int64
	Precision int // bits per entry; 32 means uncompressed
	// Clip is the quantization clipping threshold used when Precision <
	// 32 (zero for full-precision embeddings). Recording it makes a
	// quantized artifact self-describing: the 2^Precision representable
	// levels are a pure function of (Clip, Precision), which is what lets
	// the storage layer re-pack rows as b-bit codes and the query engine
	// serve them through the LUT kernel.
	Clip float64
}

// String renders the provenance as a stable identifier.
func (m Meta) String() string {
	return fmt.Sprintf("%s-%s-d%d-s%d-b%d", m.Algorithm, m.Corpus, m.Dim, m.Seed, m.Precision)
}

// New returns a zeroed embedding with n rows of dimension d.
func New(n, d int) *Embedding {
	return &Embedding{Vectors: matrix.NewDense(n, d)}
}

// Rows returns the vocabulary size.
func (e *Embedding) Rows() int { return e.Vectors.Rows }

// Dim returns the vector dimensionality.
func (e *Embedding) Dim() int { return e.Vectors.Cols }

// Vector returns the vector for word id i (shared storage).
func (e *Embedding) Vector(i int) []float64 { return e.Vectors.Row(i) }

// Clone returns a deep copy of the embedding.
func (e *Embedding) Clone() *Embedding {
	c := &Embedding{Vectors: e.Vectors.Clone(), Meta: e.Meta}
	if e.Words != nil {
		c.Words = append([]string(nil), e.Words...)
	}
	return c
}

// SubRows returns a new embedding containing only the given word ids, in
// order. The paper computes distance measures over the top-10k most
// frequent words; this is the slicing primitive for that.
func (e *Embedding) SubRows(ids []int) *Embedding {
	out := New(len(ids), e.Dim())
	out.Meta = e.Meta
	if e.Words != nil {
		out.Words = make([]string, len(ids))
	}
	for r, id := range ids {
		copy(out.Vectors.Row(r), e.Vectors.Row(id))
		if e.Words != nil {
			out.Words[r] = e.Words[id]
		}
	}
	return out
}

// AlignTo rotates e in place with the orthogonal Procrustes solution so
// that it best matches ref in Frobenius norm: e <- e * R where
// R = argmin_Ω ||ref - e*Ω||_F subject to ΩᵀΩ = I (Schönemann 1966).
// Both embeddings must have identical shape. workers bounds the
// goroutines of the solve and the rotation (<= 0 selects all CPUs); the
// aligned bits are identical for every worker count.
func (e *Embedding) AlignTo(ref *Embedding, workers int) {
	if e.Rows() != ref.Rows() || e.Dim() != ref.Dim() {
		panic("embedding: AlignTo shape mismatch")
	}
	r := matrix.ProcrustesWorkers(ref.Vectors, e.Vectors, workers)
	e.Vectors = matrix.MulWorkers(e.Vectors, r, workers)
}

// AlignTagged aligns e to ref with orthogonal Procrustes and marks e's
// provenance as the aligned variant by appending "a" to its corpus tag
// ("wiki18" -> "wiki18a"), so caches keyed on Meta can never confuse an
// aligned embedding with its unaligned original. This is the paper's
// Section 3 protocol step shared by the runner, the CLI, and
// anchor.AlignQuantize. workers is AlignTo's goroutine budget.
func AlignTagged(ref, e *Embedding, workers int) {
	e.AlignTo(ref, workers)
	e.Meta.Corpus += "a"
}
