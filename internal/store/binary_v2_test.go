package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"

	"anchor/internal/compress"
	"anchor/internal/embedding"
)

// quantTestEmbedding returns a b-bit quantized embedding with metadata and
// vocabulary, built through the real compress path so its values sit on
// the (Clip, Precision) level grid exactly as production artifacts do.
func quantTestEmbedding(t *testing.T, rows, cols, bits int) *embedding.Embedding {
	t.Helper()
	e := binTestEmbedding(t, rows, cols, false)
	clip := compress.OptimalClipWorkers(e.Vectors.Data, bits, 0)
	q := compress.QuantizeWorkers(e, bits, clip, 0)
	q.Meta.Algorithm, q.Meta.Corpus = "mc", "wiki17"
	return q
}

func TestQuantizedKindRoundTrip(t *testing.T) {
	for _, bits := range []int{1, 2, 3, 4, 5, 8} {
		e := quantTestEmbedding(t, 17, 13, bits)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, e, Quantized); err != nil {
			t.Fatalf("bits=%d: %v", bits, err)
		}
		got, err := DecodeBinary(buf.Bytes())
		if err != nil {
			t.Fatalf("bits=%d: %v", bits, err)
		}
		embEqualBits(t, e, got)
		f64 := buf.Len() - int(binary.LittleEndian.Uint64(buf.Bytes()[56:64]))
		if want := 17 * ((13*bits + 7) / 8); f64 != want {
			t.Fatalf("bits=%d: payload %d bytes, want %d", bits, f64, want)
		}
	}
}

func TestQuantizedKindRejectsOffGridEmbedding(t *testing.T) {
	e := binTestEmbedding(t, 4, 3, false) // full-precision values, no grid
	e.Meta.Precision, e.Meta.Clip = 4, 1.25
	var buf bytes.Buffer
	if err := WriteBinary(&buf, e, Quantized); err == nil {
		t.Fatal("expected error writing off-grid values as quantized codes")
	}
	e.Meta.Precision, e.Meta.Clip = 32, 0
	if err := WriteBinary(&buf, e, Quantized); err == nil {
		t.Fatal("expected error writing full-precision embedding as quantized codes")
	}
}

func TestPickKindLosslessCascade(t *testing.T) {
	q := quantTestEmbedding(t, 9, 7, 4)
	if k := PickKind(q); k != Quantized {
		t.Fatalf("4-bit quantized artifact picked kind %d, want Quantized", k)
	}
	f32 := binTestEmbedding(t, 9, 7, true)
	if k := PickKind(f32); k != Float32 {
		t.Fatalf("float32-exact artifact picked kind %d, want Float32", k)
	}
	// 9..31-bit quantized artifacts are float32-exact but have no b<=8
	// code grid: they must fall to Float32, not Quantized.
	wide := binTestEmbedding(t, 9, 7, false)
	q16 := compress.QuantizeWorkers(wide, 16, compress.OptimalClipWorkers(wide.Vectors.Data, 16, 0), 0)
	if k := PickKind(q16); k != Float32 {
		t.Fatalf("16-bit quantized artifact picked kind %d, want Float32", k)
	}
	if k := PickKind(wide); k != Float64 {
		t.Fatalf("full-precision artifact picked kind %d, want Float64", k)
	}
	// A clip so small that float32 rounding merges the levels leaves no
	// code grid either.
	tiny := embedding.New(9, 7)
	tiny.Meta.Precision, tiny.Meta.Clip = 4, 1e-300
	if k := PickKind(tiny); k != Float32 {
		t.Fatalf("artifact with merged 4-bit levels picked kind %d, want Float32", k)
	}
	// Whatever PickKind chooses must round-trip bitwise.
	for _, e := range []*embedding.Embedding{q, f32, q16, wide, tiny} {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, e, PickKind(e)); err != nil {
			t.Fatal(err)
		}
		got, err := DecodeBinary(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		embEqualBits(t, e, got)
	}
}

// v1Artifact hand-builds e in the version-1 layout: a 64-byte header
// with no clip, code-bits or checksum fields, then the strings, padding
// and a float64 payload.
func v1Artifact(t *testing.T, e *embedding.Embedding) []byte {
	t.Helper()
	const v1HeaderLen = 64
	var buf bytes.Buffer
	if err := WriteBinary(&buf, e, Float64); err != nil {
		t.Fatal(err)
	}
	v3 := buf.Bytes()
	payloadOff := int(binary.LittleEndian.Uint64(v3[56:64]))

	algo, corp := []byte(e.Meta.Algorithm), []byte(e.Meta.Corpus)
	words := []byte(strings.Join(e.Words, "\n"))
	varLen := len(algo) + len(corp) + len(words)
	v1Off := (v1HeaderLen + varLen + binAlign - 1) / binAlign * binAlign
	header := append([]byte(nil), v3[:v1HeaderLen]...)
	binary.LittleEndian.PutUint32(header[4:8], 1)
	binary.LittleEndian.PutUint64(header[56:64], uint64(v1Off))
	v1 := append(header, algo...)
	v1 = append(v1, corp...)
	v1 = append(v1, words...)
	v1 = append(v1, make([]byte, v1Off-v1HeaderLen-varLen)...)
	return append(v1, v3[payloadOff:]...)
}

// TestDecodeBinaryVersion1Compat pins how a version-1 artifact is handled
// now that only version 3 is read: DecodeBinary rejects it with an error
// that names the version and is not ErrCorrupt, so a cache holding one
// recomputes it instead of quarantining it (TestOldVersionBinIsAMiss).
func TestDecodeBinaryVersion1Compat(t *testing.T) {
	_, err := DecodeBinary(v1Artifact(t, binTestEmbedding(t, 5, 3, false)))
	if err == nil {
		t.Fatal("decode accepted a version-1 artifact")
	}
	if !strings.Contains(err.Error(), "version 1") || errors.Is(err, ErrCorrupt) {
		t.Fatalf("want a non-ErrCorrupt error naming version 1, got %v", err)
	}
}

func TestDecodeBinaryCorruptQuantizedHeader(t *testing.T) {
	e := quantTestEmbedding(t, 6, 5, 4)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, e, Quantized); err != nil {
		t.Fatal(err)
	}
	corrupt := func(name string, mutate func([]byte) []byte) {
		data := append([]byte(nil), buf.Bytes()...)
		if _, err := DecodeBinary(mutate(data)); err == nil {
			t.Fatalf("%s: decode accepted corrupt artifact", name)
		}
	}
	corrupt("code bits zero", func(d []byte) []byte {
		binary.LittleEndian.PutUint32(d[72:76], 0)
		return d
	})
	corrupt("code bits over 8", func(d []byte) []byte {
		binary.LittleEndian.PutUint32(d[72:76], 9)
		binary.LittleEndian.PutUint32(d[40:44], 9)
		return d
	})
	corrupt("code bits disagree with precision", func(d []byte) []byte {
		binary.LittleEndian.PutUint32(d[40:44], 5)
		return d
	})
	corrupt("negative clip", func(d []byte) []byte {
		binary.LittleEndian.PutUint64(d[64:72], math.Float64bits(-1))
		return d
	})
	corrupt("NaN clip", func(d []byte) []byte {
		binary.LittleEndian.PutUint64(d[64:72], math.Float64bits(math.NaN()))
		return d
	})
	corrupt("truncated payload", func(d []byte) []byte { return d[:len(d)-1] })
	corrupt("quantized kind on v1 version stamp", func(d []byte) []byte {
		binary.LittleEndian.PutUint32(d[4:8], 1)
		return d
	})
}
