package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sync"
)

// reference pins SHA-256 digests of what the server computes, so training,
// quantization and measurement are checked against fixed values and not
// only against other answers of the same server:
//
//	<snapshot>  the vocabulary, the trained float64 matrix /v1/train returns
//	            and the rows /v1/vectors serves at the snapshot's precision
//	select-s1   the select-cold set-up's ranking, body bytes as served
//
// Answers are bitwise deterministic for every worker count, so a change to
// any of these numbers must update its digest here; an answer without an
// entry fails with its digest in the message. The values are those of
// linux/amd64 builds (GOAMD64=v1, no fused multiply-add).
var reference = map[string]string{
	"mc-2017-d8-b32-s1":  "cb53f2ff9033d1b05dc8a6bddde4304e29964d8c903a5e606a8fce8c562aceed",
	"mc-2018-d8-b32-s1":  "4945917dded9bac1a9e606cf06a7c0df0fed5fad8d22ad73857a96844e16c69a",
	"mc-2017-d16-b32-s1": "1cc2c5cb9d675e11274d62cca9d9d24b79f898aca56586eebcb329bd080c017a",
	"mc-2017-d32-b8-s1":  "625f849145447e77594a79ed281efe83def9f22167a5596f1ca97a101b128272",
	"mc-2018-d32-b8-s1":  "c43e68db06b2cf51600bf3c2dcb9ab6e72aef40bf2289d65ac5eda07419633f0",
	"mc-2017-d64-b4-s1":  "9e827b9ca6f9e58ea20817fcd382f5052879e8482cd6713369d0c8f64f29d005",
	"mc-2018-d64-b4-s1":  "04e2ac1e904f77b75154ab7197c3d226872a0cc8d8e9d8c584fadf9bd9875935",
	"mc-2017-d128-b2-s1": "f0cf5e4655e556cc4453718154d1833d5c3ec601e309ca0e380e05378a6535ba",
	"mc-2018-d128-b2-s1": "6e2dd3407947076a4abef453d1797c8a0d0e77cef56c214badf6c68a654e10b0",
	"select-s1":          "8f90cafe9d6a9f2310c0bf3483ca2efb73acda4274bbf4e6ed8a34d7ae6390bb",
}

// refs compares answers with their pinned digests and keeps every
// mismatch; run counts each as a wrong answer.
type refs struct {
	want map[string]string
	mu   sync.Mutex
	errs []error
}

func newRefs() *refs { return &refs{want: reference} }

func (r *refs) check(key string, sum [sha256.Size]byte) {
	got := hex.EncodeToString(sum[:])
	switch want, ok := r.want[key]; {
	case !ok:
		r.wrong(fmt.Errorf("%s: no reference digest (computed %s)", key, got))
	case got != want:
		r.wrong(fmt.Errorf("%s: digest %s, reference %s", key, got, want))
	}
}

func (r *refs) wrong(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.errs = append(r.errs, err)
}

func (r *refs) mismatches() []error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]error(nil), r.errs...)
}

// snapshotDigest hashes a snapshot's vocabulary (row order), its trained
// matrix and its served rows, floats as little-endian IEEE 754 bits.
func snapshotDigest(words []string, trained []float64, rows [][]float64) [sha256.Size]byte {
	h := sha256.New()
	for _, w := range words {
		h.Write([]byte(w))
		h.Write([]byte{'\n'})
	}
	writeFloats(h, trained)
	for _, r := range rows {
		writeFloats(h, r)
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

func writeFloats(h hash.Hash, xs []float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}
