package matrix

// Packed code-matrix representation for b-bit uniformly quantized rows
// (b in 1..8). A Codes matrix stores each entry as an index into a shared
// table of 2^b decode levels, packed LSB-first into bytes with rows
// aligned to byte boundaries — 8 to 64 entries per 8 bytes of float64.
//
// Scoring is decode-free: MulABTIntoLUT builds, per query row, a lookup
// table lut[k][v] = q[k]·level[v] (d·2^b float64 products) and then sums
// table entries selected by each candidate row's codes. Each product
// q[k]·level[code] is the exact float64 multiplication the dequantized
// reference performs, and each output element keeps one float64
// accumulator in ascending k, so results are bitwise identical to
// MulABTInto against the dequantized rows — for every worker count,
// batch shape, and bit width.
//
// For 1-, 2-, 4- and 8-bit codes, where every packed byte holds whole
// codes, the kernel scores four candidate rows per pass with four
// independent accumulator chains (the interleave MulABTInto uses), and
// decodes each row one byte at a time: the byte's 8/b codes come out
// with constant shifts and masks, and index a fixed-size window of the
// table. 3-, 5-, 6- and 7-bit codes straddle bytes and go one row at a
// time through a bit buffer. Tables come from a pool, so a call does
// not allocate one.

import (
	"fmt"
	"sort"
	"sync"

	"anchor/internal/parallel"
)

// Codes is a rows-by-cols matrix of b-bit level indices with its decode
// table. Data holds rows*RowBytes bytes; row i occupies
// Data[i*RowBytes:(i+1)*RowBytes], codes packed LSB-first.
type Codes struct {
	Rows, Cols int
	Bits       int       // bits per code, 1..8
	Levels     []float64 // 2^Bits decode levels, strictly ascending
	RowBytes   int       // bytes per packed row: ceil(Cols*Bits/8)
	Data       []byte
}

// NewCodes returns a zeroed code matrix with the given shape and decode
// table. It panics unless bits is in 1..8 and levels has exactly 2^bits
// strictly ascending entries.
func NewCodes(rows, cols, bits int, levels []float64) *Codes {
	if bits < 1 || bits > 8 {
		panic(fmt.Sprintf("matrix: Codes bits %d out of range 1..8", bits))
	}
	if len(levels) != 1<<uint(bits) {
		panic(fmt.Sprintf("matrix: Codes wants %d levels, got %d", 1<<uint(bits), len(levels)))
	}
	for i := 1; i < len(levels); i++ {
		if !(levels[i] > levels[i-1]) {
			panic(fmt.Sprintf("matrix: Codes levels not strictly ascending at %d", i))
		}
	}
	rowBytes := (cols*bits + 7) / 8
	return &Codes{
		Rows: rows, Cols: cols, Bits: bits,
		Levels:   append([]float64(nil), levels...),
		RowBytes: rowBytes,
		Data:     make([]byte, rows*rowBytes),
	}
}

// NewCodesFromDense packs m into b-bit codes over the given decode
// levels. Every value of m must be exactly one of the levels; the first
// value that is not yields an error (the matrix is not b-bit quantized
// on this grid, so a lossless code representation does not exist).
func NewCodesFromDense(m *Dense, levels []float64, bits int) (*Codes, error) {
	c := NewCodes(m.Rows, m.Cols, bits, levels)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for k, v := range row {
			idx := sort.SearchFloat64s(c.Levels, v)
			if idx >= len(c.Levels) || c.Levels[idx] != v {
				return nil, fmt.Errorf("matrix: value %v at (%d,%d) is not on the %d-bit level grid", v, i, k, bits)
			}
			c.set(i, k, uint8(idx))
		}
	}
	return c, nil
}

// set stores code at entry (i, k). Codes are packed LSB-first: entry k of
// a row occupies bits [k*Bits, (k+1)*Bits) of the row's bit stream.
func (c *Codes) set(i, k int, code uint8) {
	row := c.Data[i*c.RowBytes : (i+1)*c.RowBytes]
	off := k * c.Bits
	bi, sh := off>>3, uint(off&7)
	row[bi] |= code << sh
	if spill := sh + uint(c.Bits); spill > 8 {
		row[bi+1] |= code >> (8 - sh)
	}
}

// DequantizeRow writes row i decoded through the level table into dst
// (length Cols).
func (c *Codes) DequantizeRow(i int, dst []float64) {
	row := c.Data[i*c.RowBytes : (i+1)*c.RowBytes]
	switch c.Bits {
	case 8:
		for k, code := range row[:c.Cols] {
			dst[k] = c.Levels[code]
		}
	default:
		var buf, nbits uint
		mask := uint(1)<<uint(c.Bits) - 1
		bi := 0
		for k := 0; k < c.Cols; k++ {
			for nbits < uint(c.Bits) {
				buf |= uint(row[bi]) << nbits
				bi++
				nbits += 8
			}
			dst[k] = c.Levels[buf&mask]
			buf >>= uint(c.Bits)
			nbits -= uint(c.Bits)
		}
	}
}

// Dense returns the fully dequantized float64 matrix — the reference
// representation golden tests score against.
func (c *Codes) Dense() *Dense {
	out := NewDense(c.Rows, c.Cols)
	for i := 0; i < c.Rows; i++ {
		c.DequantizeRow(i, out.Row(i))
	}
	return out
}

// lutPool holds reusable per-band lookup tables: a table is d·2^b
// float64s, 64 KiB for a 32-dim 8-bit snapshot.
var lutPool = sync.Pool{New: func() any { return new([]float64) }}

// MulABTIntoLUT computes a*bᵀ into dst for float64 query rows a against
// packed candidate rows b, and returns dst. dst must be a.Rows-by-b.Rows
// and must not alias a. Per query row it materializes the d·2^b table of
// products q[k]·level[v] once, then every candidate dot product is Cols
// table lookups and adds — no decode, and the only multiplications are
// the exact ones the dequantized reference performs. Workers banding
// follows the kernel contract: bands own disjoint output rows, results
// are bitwise identical to MulABTInto(dst, a, b.Dense()) for every
// worker count.
//
// For 1-, 2-, 4- and 8-bit codes, whose packed bytes hold whole codes,
// each pass scores four candidate rows (see lutDot4). Codes of 3, 5, 6
// or 7 bits straddle bytes and are scored one row at a time through a
// bit buffer.
func MulABTIntoLUT(dst, a *Dense, b *Codes, workers int) *Dense {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("matrix: MulABTLUT col mismatch %d vs %d", a.Cols, b.Cols))
	}
	checkDst(dst, a.Rows, b.Rows)
	nlv := len(b.Levels)
	runBanded(a.Rows, a.Rows*a.Cols*b.Rows, workers, func(band parallel.Range) {
		scratch := lutPool.Get().(*[]float64)
		defer lutPool.Put(scratch)
		if cap(*scratch) < a.Cols*nlv {
			*scratch = make([]float64, a.Cols*nlv)
		}
		lut := (*scratch)[:a.Cols*nlv]
		for i := band.Lo; i < band.Hi; i++ {
			arow := a.Row(i)
			for k, qv := range arow {
				base := lut[k*nlv : (k+1)*nlv]
				for v, lvl := range b.Levels {
					base[v] = qv * lvl
				}
			}
			orow := dst.Row(i)
			switch b.Bits {
			case 1, 2, 4, 8:
				// A final pass short of four rows scores the last row in
				// the missing slots and drops those sums.
				last := b.Rows - 1
				for j := 0; j < b.Rows; j += 4 {
					s0, s1, s2, s3 := lutDot4(lut, b.Bits, b.Cols,
						b.row(j), b.row(min(j+1, last)), b.row(min(j+2, last)), b.row(min(j+3, last)))
					s := [4]float64{s0, s1, s2, s3}
					copy(orow[j:], s[:])
				}
			default:
				mask := uint(1)<<uint(b.Bits) - 1
				for j := 0; j < b.Rows; j++ {
					row := b.Data[j*b.RowBytes : (j+1)*b.RowBytes]
					var s float64
					var buf, nbits uint
					bi := 0
					for k := 0; k < b.Cols; k++ {
						for nbits < uint(b.Bits) {
							buf |= uint(row[bi]) << nbits
							bi++
							nbits += 8
						}
						s += lut[k*nlv+int(buf&mask)]
						buf >>= uint(b.Bits)
						nbits -= uint(b.Bits)
					}
					orow[j] = s
				}
			}
		}
	})
	return dst
}

// row returns the packed bytes of row i.
func (c *Codes) row(i int) []byte { return c.Data[i*c.RowBytes : (i+1)*c.RowBytes] }

// lutDot4 returns the table sums of four candidate rows of bits-wide
// codes, bits in {1, 2, 4, 8}, so every packed byte holds 8/bits whole
// codes. Byte i's codes are entries k = i·(8/bits)+p, p = 0.., at bit
// offset p·bits; their table entries are contiguous, so each byte is
// decoded with constant shifts against a fixed-size window of lut. Each
// sum is one accumulator adding its entries in ascending k, the order of
// the reference dot product; the four chains are independent, so their
// adds overlap instead of waiting on each other. Every code is masked,
// the top one of a byte too, so the compiler can prove each table index
// in range.
func lutDot4(lut []float64, bits, cols int, r0, r1, r2, r3 []byte) (s0, s1, s2, s3 float64) {
	per := 8 / bits
	full := cols / per // bytes whose every code is in the row
	f0 := r0[:full]
	f1, f2, f3 := r1[:len(f0)], r2[:len(f0)], r3[:len(f0)]
	switch bits {
	case 8:
		for i, c0 := range f0 {
			t := (*[256]float64)(lut[i<<8:])
			s0, s1, s2, s3 = s0+t[c0], s1+t[f1[i]], s2+t[f2[i]], s3+t[f3[i]]
		}
	case 4:
		for i := range f0 {
			t := (*[32]float64)(lut[i<<5:])
			c0, c1, c2, c3 := uint(f0[i]), uint(f1[i]), uint(f2[i]), uint(f3[i])
			s0, s1, s2, s3 = s0+t[c0&15], s1+t[c1&15], s2+t[c2&15], s3+t[c3&15]
			s0, s1, s2, s3 = s0+t[16+c0>>4&15], s1+t[16+c1>>4&15], s2+t[16+c2>>4&15], s3+t[16+c3>>4&15]
		}
	case 2:
		for i := range f0 {
			t := (*[16]float64)(lut[i<<4:])
			c0, c1, c2, c3 := uint(f0[i]), uint(f1[i]), uint(f2[i]), uint(f3[i])
			s0, s1, s2, s3 = s0+t[c0&3], s1+t[c1&3], s2+t[c2&3], s3+t[c3&3]
			s0, s1, s2, s3 = s0+t[4+c0>>2&3], s1+t[4+c1>>2&3], s2+t[4+c2>>2&3], s3+t[4+c3>>2&3]
			s0, s1, s2, s3 = s0+t[8+c0>>4&3], s1+t[8+c1>>4&3], s2+t[8+c2>>4&3], s3+t[8+c3>>4&3]
			s0, s1, s2, s3 = s0+t[12+c0>>6&3], s1+t[12+c1>>6&3], s2+t[12+c2>>6&3], s3+t[12+c3>>6&3]
		}
	case 1:
		for i := range f0 {
			t := (*[16]float64)(lut[i<<4:])
			c0, c1, c2, c3 := uint(f0[i]), uint(f1[i]), uint(f2[i]), uint(f3[i])
			s0, s1, s2, s3 = s0+t[c0&1], s1+t[c1&1], s2+t[c2&1], s3+t[c3&1]
			s0, s1, s2, s3 = s0+t[2+c0>>1&1], s1+t[2+c1>>1&1], s2+t[2+c2>>1&1], s3+t[2+c3>>1&1]
			s0, s1, s2, s3 = s0+t[4+c0>>2&1], s1+t[4+c1>>2&1], s2+t[4+c2>>2&1], s3+t[4+c3>>2&1]
			s0, s1, s2, s3 = s0+t[6+c0>>3&1], s1+t[6+c1>>3&1], s2+t[6+c2>>3&1], s3+t[6+c3>>3&1]
			s0, s1, s2, s3 = s0+t[8+c0>>4&1], s1+t[8+c1>>4&1], s2+t[8+c2>>4&1], s3+t[8+c3>>4&1]
			s0, s1, s2, s3 = s0+t[10+c0>>5&1], s1+t[10+c1>>5&1], s2+t[10+c2>>5&1], s3+t[10+c3>>5&1]
			s0, s1, s2, s3 = s0+t[12+c0>>6&1], s1+t[12+c1>>6&1], s2+t[12+c2>>6&1], s3+t[12+c3>>6&1]
			s0, s1, s2, s3 = s0+t[14+c0>>7&1], s1+t[14+c1>>7&1], s2+t[14+c2>>7&1], s3+t[14+c3>>7&1]
		}
	}
	// The row's last byte holds the remaining cols%per codes, if any.
	if k := full * per; k < cols {
		nlv := 1 << bits
		mask := byte(nlv - 1)
		c0, c1, c2, c3 := r0[full], r1[full], r2[full], r3[full]
		for ; k < cols; k++ {
			t := lut[k*nlv:]
			s0, s1, s2, s3 = s0+t[c0&mask], s1+t[c1&mask], s2+t[c2&mask], s3+t[c3&mask]
			c0, c1, c2, c3 = c0>>bits, c1>>bits, c2>>bits, c3>>bits
		}
	}
	return s0, s1, s2, s3
}
