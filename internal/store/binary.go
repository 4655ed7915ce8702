package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"unsafe"

	"anchor/internal/compress"
	"anchor/internal/embedding"
	"anchor/internal/faults"
	"anchor/internal/matrix"
)

// Binary embedding artifact format ("ANCB"), the only serialized form of
// an embedding: the store's disk tier and the CLI's train/measure files
// both use it. The vector matrix is a raw little-endian row-major payload
// at a 64-byte-aligned offset, so a load is one os.ReadFile plus a header
// and checksum check — a float64 payload is reinterpreted in place as the
// embedding's storage with no per-row allocation and no copy.
//
// Version 3 layout (all integers little-endian):
//
//	[0:4)   magic "ANCB"
//	[4:8)   format version (currently 3)
//	[8:12)  element kind: 0 = float64, 1 = float32, 2 = quantized codes
//	[12:16) Meta.Dim
//	[16:24) rows
//	[24:32) cols
//	[32:40) Meta.Seed
//	[40:44) Meta.Precision
//	[44:48) len(algorithm string)
//	[48:52) len(corpus string)
//	[52:56) len(words blob)
//	[56:64) payload offset (from file start, 64-byte aligned)
//	[64:72) Meta.Clip (float64 bits; quantization clipping threshold)
//	[72:76) code bits (= Meta.Precision for the quantized kind, else 0)
//	[76:80) artifact checksum (CRC-32C over the entire artifact —
//	        header, strings, padding, payload — with this field zeroed)
//	[80:..) algorithm, corpus, words ("\n"-joined), zero padding
//	[payload offset:) payload, row-major
//
// The checksum is the integrity half of the failure model's "correct bits
// or clean error" rule: a torn write or bit rot in the payload surfaces as
// ErrCorrupt at decode time (quarantined and recomputed by the store's disk
// tier), never as a quietly different embedding. Any other format version
// is rejected with an error that is not ErrCorrupt: caches are local and
// disposable, so the store treats such a file as a miss and rewrites it.
//
// Float64 payloads preserve bits exactly, so a load is bitwise identical to
// the embedding that was written. Float32 payloads
// store float32(v) per element — lossless exactly when every value is
// float32-representable — at half the bytes. Quantized payloads store each
// element as a b-bit index into the 2^b level grid determined by
// (Meta.Clip, Meta.Precision), packed LSB-first with rows byte-aligned:
// 8-64x smaller than float64 and lossless exactly when every value sits on
// the grid, which is how compress.QuantizeWorkers produces artifacts (levels are
// float32-rounded by construction). PickKind chooses the smallest kind
// that is lossless for a given embedding.

// ElemKind selects the binary payload's element representation.
type ElemKind uint32

const (
	// Float64 stores each element as its exact float64 bits (lossless).
	Float64 ElemKind = 0
	// Float32 stores float32(v) per element: half the bytes, exact only
	// for float32-representable values.
	Float32 ElemKind = 1
	// Quantized stores each element as a packed b-bit code over the level
	// grid of (Meta.Clip, Meta.Precision): exact only for b-bit quantized
	// embeddings, at b bits per element instead of 64.
	Quantized ElemKind = 2
)

const (
	binMagic = "ANCB"
	// BinaryVersion is the binary artifact format version. Readers accept
	// exactly this version; the format evolves by bumping it.
	BinaryVersion = 3
	binHeaderLen  = 80
	binAlign      = 64
)

// ErrCorrupt tags decode failures caused by damaged artifact bytes —
// truncation, torn writes, bit rot, checksum mismatches — as opposed to a
// missing file, an I/O error or an unsupported format version. The disk
// tier quarantines artifacts whose load fails with errors.Is(err,
// ErrCorrupt) and recomputes them.
var ErrCorrupt = errors.New("corrupt binary artifact")

// corruptf builds a decode error carrying the ErrCorrupt sentinel.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("store: %w: "+format, append([]any{ErrCorrupt}, args...)...)
}

// castagnoli is the CRC-32C table for payload checksums (hardware
// accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// BinaryExt is the file extension of binary artifacts in the disk tier.
const BinaryExt = ".bin"

// hostLittleEndian reports whether the host stores integers little-endian
// (the only layout the zero-copy cast is valid for; big-endian hosts fall
// back to element-wise decoding).
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

func elemSize(kind ElemKind) int {
	if kind == Float32 {
		return 4
	}
	return 8
}

// codeRowBytes is the packed size of one row of b-bit codes.
func codeRowBytes(cols, bits int) int { return (cols*bits + 7) / 8 }

// payloadSize returns the payload byte count for a rows-by-cols matrix of
// the given kind (codeBits is used only by the quantized kind).
func payloadSize(rows, cols int, kind ElemKind, codeBits int) int {
	if kind == Quantized {
		return rows * codeRowBytes(cols, codeBits)
	}
	return rows * cols * elemSize(kind)
}

// kindName names an element kind for error messages and health reports.
func kindName(kind ElemKind) string {
	switch kind {
	case Float64:
		return "float64"
	case Float32:
		return "float32"
	case Quantized:
		return "quantized"
	}
	return fmt.Sprintf("kind%d", kind)
}

// wordsBlob joins the vocabulary into the on-disk blob. Words cannot
// contain "\n" (the corpus tokenizer never produces one); an embedding
// with no vocabulary stores an empty blob.
func wordsBlob(words []string) []byte {
	if len(words) == 0 {
		return nil
	}
	return []byte(strings.Join(words, "\n"))
}

func splitWordsBlob(blob []byte) []string {
	if len(blob) == 0 {
		return nil
	}
	return strings.Split(string(blob), "\n")
}

// onGrid reports whether every value of data is exactly one of the
// ascending levels.
func onGrid(data []float64, levels []float64) bool {
	for _, v := range data {
		i := sort.SearchFloat64s(levels, v)
		if i >= len(levels) || levels[i] != v {
			return false
		}
	}
	return true
}

// PickKind returns the smallest element kind that stores e losslessly:
// packed b-bit codes when the embedding is b<=8-bit quantized and every
// value sits on its (Clip, Precision) level grid, float32 when every
// value is float32-representable, float64 otherwise. Artifacts written
// with the picked kind decode to bitwise identical embeddings.
func PickKind(e *embedding.Embedding) ElemKind {
	if lv := compress.Grid(e.Meta); lv != nil && onGrid(e.Vectors.Data, lv) {
		return Quantized
	}
	if matrix.Float32Exact(e.Vectors.Data) {
		return Float32
	}
	return Float64
}

// WriteBinary writes e to w in the binary artifact format with the given
// payload element kind.
func WriteBinary(w io.Writer, e *embedding.Embedding, kind ElemKind) error {
	if kind != Float64 && kind != Float32 && kind != Quantized {
		return fmt.Errorf("store: unknown element kind %d", kind)
	}
	var codes *matrix.Codes
	codeBits := 0
	if kind == Quantized {
		lv := compress.Grid(e.Meta)
		if lv == nil {
			return fmt.Errorf("store: quantized kind needs 1..8-bit precision and a positive clip, have b=%d clip=%v",
				e.Meta.Precision, e.Meta.Clip)
		}
		var err error
		codes, err = matrix.NewCodesFromDense(e.Vectors, lv, e.Meta.Precision)
		if err != nil {
			return fmt.Errorf("store: quantized kind: %w", err)
		}
		codeBits = e.Meta.Precision
	}
	algo, corp := []byte(e.Meta.Algorithm), []byte(e.Meta.Corpus)
	words := wordsBlob(e.Words)
	varLen := len(algo) + len(corp) + len(words)
	payloadOff := (binHeaderLen + varLen + binAlign - 1) / binAlign * binAlign
	pad := make([]byte, payloadOff-binHeaderLen-varLen)

	var h [binHeaderLen]byte
	copy(h[0:4], binMagic)
	binary.LittleEndian.PutUint32(h[4:8], BinaryVersion)
	binary.LittleEndian.PutUint32(h[8:12], uint32(kind))
	binary.LittleEndian.PutUint32(h[12:16], uint32(e.Meta.Dim))
	binary.LittleEndian.PutUint64(h[16:24], uint64(e.Rows()))
	binary.LittleEndian.PutUint64(h[24:32], uint64(e.Dim()))
	binary.LittleEndian.PutUint64(h[32:40], uint64(e.Meta.Seed))
	binary.LittleEndian.PutUint32(h[40:44], uint32(e.Meta.Precision))
	binary.LittleEndian.PutUint32(h[44:48], uint32(len(algo)))
	binary.LittleEndian.PutUint32(h[48:52], uint32(len(corp)))
	binary.LittleEndian.PutUint32(h[52:56], uint32(len(words)))
	binary.LittleEndian.PutUint64(h[56:64], uint64(payloadOff))
	binary.LittleEndian.PutUint64(h[64:72], math.Float64bits(e.Meta.Clip))
	binary.LittleEndian.PutUint32(h[72:76], uint32(codeBits))

	// The checksum covers the whole artifact — header (with the checksum
	// field still zero), strings, padding, payload — so any flipped byte,
	// vocabulary strings included, surfaces as ErrCorrupt at decode time
	// rather than a quietly different embedding. The header precedes the
	// payload on the wire and io.Writer cannot seek, so the payload
	// streams twice: once through the digest, once to w.
	d := crc32.New(castagnoli)
	d.Write(h[:])
	for _, b := range [][]byte{algo, corp, words, pad} {
		d.Write(b)
	}
	if kind == Quantized {
		d.Write(codes.Data)
	} else if err := writePayload(d, e.Vectors.Data, kind); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(h[76:80], d.Sum32())

	if _, err := w.Write(h[:]); err != nil {
		return fmt.Errorf("store: write binary header: %w", err)
	}
	for _, b := range [][]byte{algo, corp, words, pad} {
		if len(b) == 0 {
			continue
		}
		if _, err := w.Write(b); err != nil {
			return fmt.Errorf("store: write binary artifact: %w", err)
		}
	}
	if kind == Quantized {
		if len(codes.Data) == 0 {
			return nil
		}
		if _, err := w.Write(codes.Data); err != nil {
			return fmt.Errorf("store: write binary payload: %w", err)
		}
		return nil
	}
	return writePayload(w, e.Vectors.Data, kind)
}

// writePayload streams the matrix data as little-endian elements. On
// little-endian hosts the float64 payload is the matrix storage itself,
// written in one call.
func writePayload(w io.Writer, data []float64, kind ElemKind) error {
	if kind == Float64 && hostLittleEndian && len(data) > 0 {
		bytes := unsafe.Slice((*byte)(unsafe.Pointer(&data[0])), len(data)*8)
		_, err := w.Write(bytes)
		if err != nil {
			return fmt.Errorf("store: write binary payload: %w", err)
		}
		return nil
	}
	const chunk = 16 * 1024
	esz := elemSize(kind)
	buf := make([]byte, chunk*esz)
	for len(data) > 0 {
		n := len(data)
		if n > chunk {
			n = chunk
		}
		for i, v := range data[:n] {
			if kind == Float32 {
				binary.LittleEndian.PutUint32(buf[i*4:], math.Float32bits(float32(v)))
			} else {
				binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
			}
		}
		if _, err := w.Write(buf[:n*esz]); err != nil {
			return fmt.Errorf("store: write binary payload: %w", err)
		}
		data = data[n:]
	}
	return nil
}

// DecodeBinary decodes a binary artifact from data. When the payload is
// float64, the host is little-endian, and the payload offset lands
// 8-byte-aligned in memory, the returned embedding's matrix aliases data
// directly (zero copy) — the caller must keep data immutable and alive for
// the embedding's lifetime (os.ReadFile allocations satisfy this). Other
// payloads decode through one bulk allocation; nothing is allocated per
// row either way.
func DecodeBinary(data []byte) (*embedding.Embedding, error) {
	if len(data) < binHeaderLen {
		return nil, corruptf("truncated: %d bytes < %d-byte header", len(data), binHeaderLen)
	}
	if string(data[0:4]) != binMagic {
		return nil, corruptf("not a binary artifact (magic %q)", data[0:4])
	}
	if version := binary.LittleEndian.Uint32(data[4:8]); version != BinaryVersion {
		return nil, fmt.Errorf("store: binary artifact version %d, want %d", version, BinaryVersion)
	}
	kind := ElemKind(binary.LittleEndian.Uint32(data[8:12]))
	if kind != Float64 && kind != Float32 && kind != Quantized {
		return nil, corruptf("unknown element kind %d", kind)
	}
	metaDim := int(int32(binary.LittleEndian.Uint32(data[12:16])))
	rows := int(binary.LittleEndian.Uint64(data[16:24]))
	cols := int(binary.LittleEndian.Uint64(data[24:32]))
	seed := int64(binary.LittleEndian.Uint64(data[32:40]))
	prec := int(int32(binary.LittleEndian.Uint32(data[40:44])))
	algoLen := int(binary.LittleEndian.Uint32(data[44:48]))
	corpLen := int(binary.LittleEndian.Uint32(data[48:52]))
	wordsLen := int(binary.LittleEndian.Uint32(data[52:56]))
	payloadOff := int(binary.LittleEndian.Uint64(data[56:64]))
	clip := math.Float64frombits(binary.LittleEndian.Uint64(data[64:72]))
	codeBits := int(int32(binary.LittleEndian.Uint32(data[72:76])))
	var levels []float64
	if kind == Quantized {
		levels = compress.Grid(embedding.Meta{Precision: prec, Clip: clip})
		if levels == nil || codeBits != prec {
			return nil, corruptf("quantized code bits %d (precision %d, clip %v)", codeBits, prec, clip)
		}
	}

	if rows < 0 || cols < 0 || rows > math.MaxInt/8/max(cols, 1) {
		return nil, corruptf("%dx%d matrix", rows, cols)
	}
	if binHeaderLen+algoLen+corpLen+wordsLen > payloadOff || payloadOff%binAlign != 0 {
		return nil, corruptf("payload offset %d under %d header bytes",
			payloadOff, binHeaderLen+algoLen+corpLen+wordsLen)
	}
	want := payloadOff + payloadSize(rows, cols, kind, codeBits)
	if len(data) != want {
		return nil, corruptf("%d bytes, want %d for %dx%d %s",
			len(data), want, rows, cols, kindName(kind))
	}
	wantSum := binary.LittleEndian.Uint32(data[76:80])
	d := crc32.New(castagnoli)
	d.Write(data[:76])
	d.Write([]byte{0, 0, 0, 0}) // the checksum field, as hashed by the writer
	d.Write(data[80:])
	if got := d.Sum32(); got != wantSum {
		return nil, corruptf("artifact checksum %08x, want %08x", got, wantSum)
	}

	off := binHeaderLen
	algo := string(data[off : off+algoLen])
	off += algoLen
	corp := string(data[off : off+corpLen])
	off += corpLen
	words := splitWordsBlob(data[off : off+wordsLen])
	if words != nil && len(words) != rows {
		return nil, corruptf("%d words for %d rows", len(words), rows)
	}

	var vals []float64
	if kind == Quantized {
		codes := &matrix.Codes{
			Rows: rows, Cols: cols, Bits: codeBits,
			Levels:   levels,
			RowBytes: codeRowBytes(cols, codeBits),
			Data:     data[payloadOff:],
		}
		vals = codes.Dense().Data
	} else {
		vals = decodePayload(data[payloadOff:], rows*cols, kind)
	}
	return &embedding.Embedding{
		Vectors: matrix.NewDenseData(rows, cols, vals),
		Words:   words,
		Meta: embedding.Meta{
			Algorithm: algo, Corpus: corp, Dim: metaDim, Seed: seed, Precision: prec, Clip: clip,
		},
	}, nil
}

// decodePayload reinterprets (or decodes) n elements from payload.
func decodePayload(payload []byte, n int, kind ElemKind) []float64 {
	if n == 0 {
		return nil
	}
	if kind == Float64 && hostLittleEndian && uintptr(unsafe.Pointer(&payload[0]))%8 == 0 {
		return unsafe.Slice((*float64)(unsafe.Pointer(&payload[0])), n)
	}
	vals := make([]float64, n)
	if kind == Float32 {
		for i := range vals {
			vals[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(payload[i*4:])))
		}
	} else {
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[i*8:]))
		}
	}
	return vals
}

// SaveBinaryFile writes e to path in the binary format (not atomically;
// the store's disk tier goes through its own temp-file + rename).
func SaveBinaryFile(path string, e *embedding.Embedding, kind ElemKind) error {
	if err := faults.Error(siteWrite); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	if err := WriteBinary(f, e, kind); err != nil {
		return err
	}
	return f.Sync()
}

// LoadBinaryFile reads a binary artifact in one os.ReadFile. The float64
// payload is used in place (see DecodeBinary), so the load allocates the
// file buffer and nothing per row.
func LoadBinaryFile(path string) (*embedding.Embedding, error) {
	if err := faults.Error(siteBinRead); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return DecodeBinary(faults.Corrupt(siteBinBytes, data))
}
