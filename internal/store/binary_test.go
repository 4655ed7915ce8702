package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"anchor/internal/embedding"
)

// binTestEmbedding builds a small embedding with full metadata, a
// vocabulary, and values exercising signs, subnormals, and
// non-representable floats.
func binTestEmbedding(t *testing.T, rows, cols int, f32exact bool) *embedding.Embedding {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	e := embedding.New(rows, cols)
	for i := range e.Vectors.Data {
		v := rng.NormFloat64()
		if f32exact {
			v = float64(float32(v))
		}
		e.Vectors.Data[i] = v
	}
	if rows > 2 {
		e.Vectors.Data[0] = 0
		e.Vectors.Data[1] = math.Copysign(0, -1)
		if !f32exact {
			e.Vectors.Data[2] = 5e-324 // float64 subnormal
		}
	}
	e.Words = make([]string, rows)
	for i := range e.Words {
		e.Words[i] = "w" + strings.Repeat("x", i%3) + string(rune('a'+i%26))
	}
	e.Meta = embedding.Meta{Algorithm: "cbow", Corpus: "wiki17", Dim: cols, Seed: 42, Precision: 32}
	return e
}

// embEqualBits fails unless a and b agree bit-for-bit in values, words,
// and metadata.
func embEqualBits(t *testing.T, a, b *embedding.Embedding) {
	t.Helper()
	if a.Rows() != b.Rows() || a.Dim() != b.Dim() {
		t.Fatalf("shape %dx%d vs %dx%d", a.Rows(), a.Dim(), b.Rows(), b.Dim())
	}
	for i, v := range a.Vectors.Data {
		if math.Float64bits(v) != math.Float64bits(b.Vectors.Data[i]) {
			t.Fatalf("value %d: %x vs %x", i, math.Float64bits(v), math.Float64bits(b.Vectors.Data[i]))
		}
	}
	if len(a.Words) != len(b.Words) {
		t.Fatalf("words %d vs %d", len(a.Words), len(b.Words))
	}
	for i := range a.Words {
		if a.Words[i] != b.Words[i] {
			t.Fatalf("word %d: %q vs %q", i, a.Words[i], b.Words[i])
		}
	}
	if a.Meta != b.Meta {
		t.Fatalf("meta %+v vs %+v", a.Meta, b.Meta)
	}
}

// TestBinaryRoundTripFloat64BitEqualsGob checks a float64 round trip
// against the source embedding; the gob encoding this was once compared
// with is gone, and the source is the stricter reference.
func TestBinaryRoundTripFloat64BitEqualsGob(t *testing.T) {
	e := binTestEmbedding(t, 37, 9, false)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, e, Float64); err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeBinary(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	embEqualBits(t, e, dec)
}

func TestBinaryRoundTripFloat32BitEqualsGob(t *testing.T) {
	// Float32 payloads are exact when every value is float32-representable
	// (the quantized-embedding case); then the binary round trip must
	// agree with the source embedding bit-for-bit.
	e := binTestEmbedding(t, 23, 5, true)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, e, Float32); err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeBinary(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	embEqualBits(t, e, dec)
	if buf.Len() >= 23*5*8 {
		t.Fatalf("float32 payload not narrower: %d bytes", buf.Len())
	}
}

func TestBinaryFloat32Narrowing(t *testing.T) {
	// Non-representable values narrow to float32(v) — documented loss.
	e := embedding.New(1, 1)
	e.Vectors.Data[0] = 1.0000000000000002 // not float32-representable
	var buf bytes.Buffer
	if err := WriteBinary(&buf, e, Float32); err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeBinary(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := dec.Vectors.Data[0], float64(float32(e.Vectors.Data[0])); got != want {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestBinaryFileRoundTrip(t *testing.T) {
	e := binTestEmbedding(t, 12, 4, false)
	path := filepath.Join(t.TempDir(), "emb.bin")
	if err := SaveBinaryFile(path, e, Float64); err != nil {
		t.Fatal(err)
	}
	dec, err := LoadBinaryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	embEqualBits(t, e, dec)
}

func TestBinaryNoWords(t *testing.T) {
	e := binTestEmbedding(t, 6, 3, false)
	e.Words = nil
	var buf bytes.Buffer
	if err := WriteBinary(&buf, e, Float64); err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeBinary(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	embEqualBits(t, e, dec)
}

// encodeValid returns a well-formed binary artifact to corrupt.
func encodeValid(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, binTestEmbedding(t, 8, 3, false), Float64); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestBinaryRejectsCorrupt(t *testing.T) {
	valid := encodeValid(t)
	corrupt := func(name string, mutate func([]byte) []byte) {
		data := mutate(append([]byte(nil), valid...))
		if _, err := DecodeBinary(data); err == nil {
			t.Errorf("%s: decode accepted corrupt artifact", name)
		}
	}
	corrupt("empty", func(d []byte) []byte { return nil })
	corrupt("truncated header", func(d []byte) []byte { return d[:binHeaderLen-1] })
	corrupt("truncated payload", func(d []byte) []byte { return d[:len(d)-1] })
	corrupt("trailing garbage", func(d []byte) []byte { return append(d, 0) })
	corrupt("bad magic", func(d []byte) []byte { d[0] = 'X'; return d })
	corrupt("bad elem kind", func(d []byte) []byte {
		binary.LittleEndian.PutUint32(d[8:12], 9)
		return d
	})
	corrupt("rows overflow", func(d []byte) []byte {
		binary.LittleEndian.PutUint64(d[16:24], math.MaxUint64/2)
		return d
	})
	corrupt("payload offset under strings", func(d []byte) []byte {
		binary.LittleEndian.PutUint32(d[44:48], 1<<20) // algo len past payload
		return d
	})
	corrupt("word count mismatch", func(d []byte) []byte {
		// Shrink the words blob length so it splits into fewer words than rows.
		binary.LittleEndian.PutUint32(d[52:56], 2)
		return d
	})
}

func TestBinaryRejectsFutureVersion(t *testing.T) {
	// The format evolves by bumping the version; a reader must reject a
	// file stamped with a version it does not understand rather than
	// misparse it, and must not call it corrupt (the store would
	// quarantine it instead of treating it as a miss).
	data := encodeValid(t)
	binary.LittleEndian.PutUint32(data[4:8], BinaryVersion+1)
	_, err := DecodeBinary(data)
	if err == nil {
		t.Fatal("decode accepted artifact from a future format version")
	}
	if !strings.Contains(err.Error(), "version") || errors.Is(err, ErrCorrupt) {
		t.Fatalf("want a non-ErrCorrupt error naming the version, got %v", err)
	}
}

func TestStoreDiskTierPrefersBinary(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	k := Key{Algo: "cbow", Corpus: "wiki17", Dim: 3, Seed: 1, Bits: 32, Scope: "x"}
	e := binTestEmbedding(t, 8, 3, false)
	got, err := st.Get(k, true, func() (*embedding.Embedding, error) { return e, nil })
	if err != nil {
		t.Fatal(err)
	}
	embEqualBits(t, e, got)
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || files[0].Name() != k.ID()+BinaryExt {
		t.Fatalf("cache dir holds %v, want only %s", files, k.ID()+BinaryExt)
	}

	// A fresh store must hit disk via the binary artifact.
	st2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := st2.Get(k, true, func() (*embedding.Embedding, error) {
		t.Fatal("recomputed despite binary disk artifact")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	embEqualBits(t, e, got2)
	if st2.Stats().DiskHits != 1 {
		t.Fatalf("disk hits = %d, want 1", st2.Stats().DiskHits)
	}
}

// TestStoreDiskTierGobFallback pins what a cache written by an older
// build, which kept a .gob beside each .bin, gets now that there is no gob
// fallback: a key with only its .gob left is a miss. The store recomputes,
// writes the .bin, and neither reads, quarantines nor removes the .gob.
func TestStoreDiskTierGobFallback(t *testing.T) {
	dir := t.TempDir()
	k := Key{Algo: "cbow", Corpus: "wiki17", Dim: 3, Seed: 1, Bits: 32, Scope: "x"}
	e := binTestEmbedding(t, 8, 3, false)
	legacy := filepath.Join(dir, k.ID()+".gob")
	if err := os.WriteFile(legacy, []byte("gob bytes from an older build"), 0o644); err != nil {
		t.Fatal(err)
	}
	if st := recomputeOnce(t, dir, k, e); st.Computes != 1 || st.DiskHits != 0 || st.Quarantines != 0 {
		t.Fatalf("stats = %+v, want 1 compute, no disk hit, no quarantine", st)
	}
	bin, err := LoadBinaryFile(filepath.Join(dir, k.ID()+BinaryExt))
	if err != nil {
		t.Fatalf("recompute did not persist the binary artifact: %v", err)
	}
	embEqualBits(t, e, bin)
	if data, err := os.ReadFile(legacy); err != nil || string(data) != "gob bytes from an older build" {
		t.Fatalf("legacy .gob was touched: %q, %v", data, err)
	}
}

func TestDecodeBinaryZeroCopy(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("zero-copy decode requires a little-endian host")
	}
	var buf bytes.Buffer
	e := binTestEmbedding(t, 8, 3, false)
	if err := WriteBinary(&buf, e, Float64); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	dec, err := DecodeBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	// bytes.Buffer allocations are 8-aligned and the payload offset is
	// 64-aligned, so the decode must alias data, not copy it.
	data[len(data)-8] ^= 0xff
	if dec.Vectors.Data[len(dec.Vectors.Data)-1] == e.Vectors.Data[len(e.Vectors.Data)-1] {
		t.Fatal("decode copied the payload; expected zero-copy aliasing")
	}
}
