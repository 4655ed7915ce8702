package store

import (
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"anchor/internal/embedding"
)

// fuzzArtifact builds a valid encoded artifact without *testing.T so it
// can seed the fuzz corpus. Mirrors binTestEmbedding/encodeValid; words
// false leaves Words nil, as TestBinaryNoWords does.
func fuzzArtifact(rows, cols int, f32exact, words bool, kind ElemKind) []byte {
	rng := rand.New(rand.NewSource(7))
	e := embedding.New(rows, cols)
	for i := range e.Vectors.Data {
		v := rng.NormFloat64()
		if f32exact {
			v = float64(float32(v))
		}
		e.Vectors.Data[i] = v
	}
	if words {
		e.Words = make([]string, rows)
		for i := range e.Words {
			e.Words[i] = "w" + strings.Repeat("x", i%3) + string(rune('a'+i%26))
		}
	}
	e.Meta = embedding.Meta{Algorithm: "cbow", Corpus: "wiki17", Dim: cols, Seed: 42, Precision: 32}
	var buf strings.Builder
	if err := WriteBinary(&buf, e, kind); err != nil {
		panic(err)
	}
	return []byte(buf.String())
}

// FuzzDecodeBinary throws arbitrary, corrupt, and truncated bytes at the
// binary-artifact decoder. The decoder's contract under damage is the
// repo-wide degradation contract in miniature: decode cleanly and
// bitwise-faithfully, or return an error — never panic, never hand back
// an embedding a re-encode chokes on. Run by `make fuzz-smoke` and CI
// with a 30s budget.
func FuzzDecodeBinary(f *testing.F) {
	valid := fuzzArtifact(8, 3, false, true, Float64)
	f.Add(valid)
	f.Add(fuzzArtifact(8, 3, true, true, Float32))
	f.Add([]byte{})
	// The corrupt fixtures from TestBinaryRejectsCorrupt seed the corpus
	// so the fuzzer starts at every rejection branch.
	mutate := func(m func([]byte) []byte) { f.Add(m(append([]byte(nil), valid...))) }
	mutate(func(d []byte) []byte { return d[:binHeaderLen-1] })
	mutate(func(d []byte) []byte { return d[:len(d)-1] })
	mutate(func(d []byte) []byte { return append(d, 0) })
	mutate(func(d []byte) []byte { d[0] = 'X'; return d })
	mutate(func(d []byte) []byte {
		binary.LittleEndian.PutUint32(d[8:12], 9) // bad elem kind
		return d
	})
	mutate(func(d []byte) []byte {
		binary.LittleEndian.PutUint64(d[16:24], math.MaxUint64/2) // rows overflow
		return d
	})
	mutate(func(d []byte) []byte {
		binary.LittleEndian.PutUint32(d[44:48], 1<<20) // algo len past payload
		return d
	})
	mutate(func(d []byte) []byte {
		binary.LittleEndian.PutUint32(d[52:56], 2) // word count mismatch
		return d
	})
	mutate(func(d []byte) []byte {
		binary.LittleEndian.PutUint32(d[76:80], 0xdeadbeef) // checksum mismatch
		return d
	})
	// A words-less artifact decodes with nil Words (TestBinaryNoWords).
	f.Add(fuzzArtifact(6, 3, false, false, Float64))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("bounded input size")
		}
		e, err := DecodeBinary(data)
		if err != nil {
			if e != nil {
				t.Fatal("decode returned both an embedding and an error")
			}
			return
		}
		// A successful decode must produce a self-consistent embedding
		// that survives a round trip through the writer.
		if e == nil {
			t.Fatal("decode returned neither an embedding nor an error")
		}
		// Words may be nil (embedding.Embedding allows it); otherwise
		// there is one per row.
		if e.Words != nil && len(e.Words) != e.Rows() {
			t.Fatalf("decoded %d words for %d rows", len(e.Words), e.Rows())
		}
		if err := WriteBinary(io.Discard, e, PickKind(e)); err != nil {
			t.Fatalf("re-encode of successfully decoded artifact failed: %v", err)
		}
	})
}
