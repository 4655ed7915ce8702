package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"anchor/internal/embedding"
	"anchor/internal/faults"
)

// warmDir persists one artifact under k into a fresh cache dir and
// returns the dir and the embedding it holds.
func warmDir(t *testing.T) (string, Key, *embedding.Embedding) {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	k := key(4)
	want := testEmbedding(4, 1.5)
	if _, err := s.Get(k, func() (*embedding.Embedding, error) { return want, nil }); err != nil {
		t.Fatal(err)
	}
	return dir, k, want
}

// flipLastByte damages a file's final payload byte in place, leaving its
// length (and so every shape check) intact.
func flipLastByte(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestOpenSweepsStaleTemps plants crashed-writer debris and checks Open
// removes it without touching live artifacts or quarantined files.
func TestOpenSweepsStaleTemps(t *testing.T) {
	dir, k, _ := warmDir(t)
	stale := filepath.Join(dir, k.ID()+".tmp123456789")
	keepQuarantined := filepath.Join(dir, k.ID()+BinaryExt+".quarantined")
	for _, p := range []string{stale, keepQuarantined} {
		if err := os.WriteFile(p, []byte("debris"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Open(dir, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale temp survived Open: stat err = %v", err)
	}
	for _, p := range []string{filepath.Join(dir, k.ID()+BinaryExt), keepQuarantined} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("Open swept non-temp file %s: %v", filepath.Base(p), err)
		}
	}
}

// TestChecksumRejectsPayloadFlip pins what the v3 checksum buys: a
// payload bit flip that preserves the artifact's length and header decodes
// to ErrCorrupt instead of quietly different vectors.
func TestChecksumRejectsPayloadFlip(t *testing.T) {
	dir, k, _ := warmDir(t)
	bin := filepath.Join(dir, k.ID()+BinaryExt)
	flipLastByte(t, bin)
	_, err := LoadBinaryFile(bin)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped payload byte: err = %v, want ErrCorrupt", err)
	}
}

// recomputeOnce opens a fresh store over dir and gets k through a compute
// that returns want, failing unless the answer is bitwise want.
func recomputeOnce(t *testing.T, dir string, k Key, want *embedding.Embedding) Stats {
	t.Helper()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(k, func() (*embedding.Embedding, error) { return want, nil })
	if err != nil {
		t.Fatal(err)
	}
	embEqualBits(t, want, got)
	return s.Stats()
}

// TestCorruptBinQuarantinedAndRecovered: a damaged .bin is moved aside,
// the artifact is recomputed bitwise identical, and the rewritten .bin
// decodes clean.
func TestCorruptBinQuarantinedAndRecovered(t *testing.T) {
	dir, k, want := warmDir(t)
	bin := filepath.Join(dir, k.ID()+BinaryExt)
	flipLastByte(t, bin)

	st := recomputeOnce(t, dir, k, want)
	if st.Quarantines != 1 || st.Computes != 1 || st.DiskHits != 0 {
		t.Fatalf("stats = %+v, want 1 quarantine, 1 compute, no disk hit", st)
	}
	if _, err := os.Stat(bin + ".quarantined"); err != nil {
		t.Fatalf("damaged binary not quarantined: %v", err)
	}
	repaired, err := LoadBinaryFile(bin)
	if err != nil {
		t.Fatalf("rewritten binary: %v", err)
	}
	embEqualBits(t, want, repaired)
}

// TestCorruptBothEncodingsRecomputed: a damaged .bin beside a damaged
// .gob left by an older build is recomputed. Only the .bin is
// quarantined; the store never reads the .gob, so it stays as it was.
func TestCorruptBothEncodingsRecomputed(t *testing.T) {
	dir, k, want := warmDir(t)
	flipLastByte(t, filepath.Join(dir, k.ID()+BinaryExt))
	legacy := filepath.Join(dir, k.ID()+".gob")
	if err := os.WriteFile(legacy, []byte("not a gob"), 0o644); err != nil {
		t.Fatal(err)
	}
	st := recomputeOnce(t, dir, k, want)
	if st.Quarantines != 1 || st.Computes != 1 {
		t.Fatalf("stats = %+v, want 1 quarantine, 1 compute", st)
	}
	if data, err := os.ReadFile(legacy); err != nil || string(data) != "not a gob" {
		t.Fatalf("legacy .gob was touched: %q, %v", data, err)
	}
}

// TestInjectedReadErrorFallsBackWithoutQuarantine: a transient I/O error
// on the binary read (injected) falls back to a recompute, but must not
// quarantine the intact artifact; the rewrite leaves its bytes as they
// were.
func TestInjectedReadErrorFallsBackWithoutQuarantine(t *testing.T) {
	dir, k, want := warmDir(t)
	bin := filepath.Join(dir, k.ID()+BinaryExt)
	before, err := os.ReadFile(bin)
	if err != nil {
		t.Fatal(err)
	}

	defer faults.Activate(faults.MustPlan(1, faults.Rule{Site: "store/bin.read", Kind: faults.KindError, Count: 1}))()
	st := recomputeOnce(t, dir, k, want)
	if st.Quarantines != 0 || st.Computes != 1 {
		t.Fatalf("stats = %+v, want no quarantine and 1 compute", st)
	}
	after, err := os.ReadFile(bin)
	if err != nil {
		t.Fatalf("intact binary disappeared: %v", err)
	}
	if !bytes.Equal(after, before) {
		t.Fatal("recompute after a transient read error changed the artifact's bytes")
	}
}

// TestOldVersionBinIsAMiss: a .bin from an older format version (v1
// layout, or a v2 stamp with no checksum) is not damage. The store
// recomputes it without quarantine and rewrites it as version 3.
func TestOldVersionBinIsAMiss(t *testing.T) {
	for _, version := range []int{1, 2} {
		dir, k, want := warmDir(t)
		bin := filepath.Join(dir, k.ID()+BinaryExt)
		v3, err := os.ReadFile(bin)
		if err != nil {
			t.Fatal(err)
		}
		old := v1Artifact(t, want)
		if version == 2 {
			// The v2 layout is v3's with the checksum field zero.
			old = append([]byte(nil), v3...)
			binary.LittleEndian.PutUint32(old[4:8], 2)
			binary.LittleEndian.PutUint32(old[76:80], 0)
		}
		if err := os.WriteFile(bin, old, 0o644); err != nil {
			t.Fatal(err)
		}
		st := recomputeOnce(t, dir, k, want)
		if st.Quarantines != 0 || st.Computes != 1 || st.DiskHits != 0 {
			t.Fatalf("v%d: stats = %+v, want no quarantine, 1 compute, no disk hit", version, st)
		}
		if rewritten, err := os.ReadFile(bin); err != nil || !bytes.Equal(rewritten, v3) {
			t.Fatalf("v%d: the recompute did not rewrite the version-3 artifact (err %v)", version, err)
		}
	}
}
