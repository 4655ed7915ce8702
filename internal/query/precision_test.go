package query

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"anchor/internal/compress"
	"anchor/internal/embedding"
	"anchor/internal/floats"
)

// quantFixtureSource derives quantized snapshots from fixtureSource's
// deterministic full-precision bases: ref.Bits in 1..31 quantizes the
// base artifact through the real compress path (recording clip and
// precision in Meta), 0/32 serves the base unchanged. The same Ref
// always yields bitwise-identical artifacts.
func quantFixtureSource(rows int) Source {
	full := fixtureSource(rows, nil)
	return func(ctx context.Context, ref Ref) (*embedding.Embedding, error) {
		base := ref
		base.Bits = 0
		e, err := full(ctx, base)
		if err != nil || ref.Bits == 0 || ref.Bits >= 32 {
			return e, err
		}
		clip := compress.OptimalClipWorkers(e.Vectors.Data, ref.Bits, 0)
		return compress.QuantizeWorkers(e, ref.Bits, clip, 0), nil
	}
}

// referencePrecisionNeighbors is the dequantize-then-float64 oracle the
// golden tests hold the compact paths to: raw float64 rows (a quantized
// artifact's values ARE its dequantized rows), serial single-accumulator
// raw dot products, then sim = (dot·invQ)·invJ, then top-k by similarity
// descending with id-ascending tie-breaks, self excluded.
func referencePrecisionNeighbors(e *embedding.Embedding, id, k int) []Neighbor {
	n := e.Rows()
	inv := make([]float64, n)
	for i := 0; i < n; i++ {
		if nm := floats.Norm(e.Vector(i)); nm != 0 {
			inv[i] = 1 / nm
		}
	}
	type cand struct {
		id  int
		sim float64
	}
	var cands []cand
	for j := 0; j < n; j++ {
		if j == id {
			continue
		}
		sim := (floats.Dot(e.Vector(id), e.Vector(j)) * inv[id]) * inv[j]
		cands = append(cands, cand{j, sim})
	}
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0; j-- {
			a, b := cands[j-1], cands[j]
			if b.sim > a.sim || (b.sim == a.sim && b.id < a.id) {
				cands[j-1], cands[j] = b, a
			} else {
				break
			}
		}
	}
	if k > len(cands) {
		k = len(cands)
	}
	out := make([]Neighbor, k)
	for i := range out {
		out[i] = Neighbor{Word: fmt.Sprintf("w%03d", cands[i].id), ID: cands[i].id, Score: cands[i].sim}
	}
	return out
}

func neighborsEqualBits(t *testing.T, label string, got, want []Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d neighbors, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID {
			t.Fatalf("%s neighbor %d: id %d, want %d", label, i, got[i].ID, want[i].ID)
		}
		if math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s neighbor %d: score %x, want %x", label, i,
				math.Float64bits(got[i].Score), math.Float64bits(want[i].Score))
		}
	}
}

// TestQuantizedNeighborsGoldenBitEquality is the tentpole's golden test:
// for every precision mode (b<=8 packed codes, 9..31 float32, both
// compared against dequantize-then-float64 execution), every worker
// count, and every batch shape (singleton, one NeighborsBatch block,
// concurrent singletons), the engine's answers must be bitwise identical
// to the reference.
func TestQuantizedNeighborsGoldenBitEquality(t *testing.T) {
	const rows, k = 60, 7
	src := quantFixtureSource(rows)
	ctx := context.Background()
	words := make([]string, rows)
	for i := range words {
		words[i] = fmt.Sprintf("w%03d", i)
	}
	for _, bits := range []int{1, 2, 4, 8, 16} {
		ref := Ref{Algo: "cbow", Year: 2017, Dim: 16, Seed: 1, Bits: bits}
		art, err := src(ctx, ref)
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]Neighbor, rows)
		for id := range want {
			want[id] = referencePrecisionNeighbors(art, id, k)
		}
		for _, workers := range []int{1, 2, 3, 8} {
			label := fmt.Sprintf("bits=%d workers=%d", bits, workers)

			// Singleton execution: one query per block.
			single := New(src, WithWorkers(workers))
			for id, w := range words {
				ns, err := single.Neighbors(ctx, ref, w, k)
				if err != nil {
					t.Fatal(err)
				}
				neighborsEqualBits(t, label+" singleton "+w, ns, want[id])
			}

			// One multi-word block.
			batched := New(src, WithWorkers(workers))
			all, err := batched.NeighborsBatch(ctx, ref, words, k)
			if err != nil {
				t.Fatal(err)
			}
			for id := range words {
				neighborsEqualBits(t, label+" batch", all[id], want[id])
			}

			// Concurrent singletons, each scored as its own block.
			concurrent := New(src, WithWorkers(workers))
			for id, ns := range queryAll(t, concurrent, ref, words, k) {
				neighborsEqualBits(t, label+" concurrent", ns, want[id])
			}
		}
	}
}

// TestQuantizedSnapshotResidency: a b<=8 artifact must go resident as
// packed codes at >= 4x (here ~8x) fewer bytes than the float64 path,
// a 9..31-bit artifact as float32 rows, and both must reconstruct any
// vector bitwise. This is what "8-16x more snapshots per byte of budget"
// is made of.
func TestQuantizedSnapshotResidency(t *testing.T) {
	const rows = 400
	src := quantFixtureSource(rows)
	ctx := context.Background()
	eng := New(src)
	mk := func(bits int) Ref { return Ref{Algo: "cbow", Year: 2017, Dim: 64, Seed: 1, Bits: bits} }
	for _, bits := range []int{32, 16, 8, 1} {
		if _, err := eng.Words(ctx, mk(bits)); err != nil {
			t.Fatal(err)
		}
	}
	infos := map[int]SnapshotInfo{}
	for _, in := range eng.Resident() {
		infos[in.Bits] = in
	}
	if got := infos[32].Mode; got != "float64" {
		t.Fatalf("32-bit mode %q", got)
	}
	if got := infos[16].Mode; got != "float32" {
		t.Fatalf("16-bit mode %q, want float32", got)
	}
	for _, b := range []int{1, 8} {
		if got := infos[b].Mode; got != "codes" {
			t.Fatalf("%d-bit mode %q, want codes", b, got)
		}
	}
	if f64, c8 := infos[32].Bytes, infos[8].Bytes; c8*4 > f64 {
		t.Fatalf("8-bit snapshot %d bytes vs float64 %d: want >= 4x reduction", c8, f64)
	}
	if f64, f32 := infos[32].Bytes, infos[16].Bytes; f32*2 > f64 {
		t.Fatalf("float32 snapshot %d bytes vs float64 %d: want >= 2x reduction", f32, f64)
	}

	// Vector lookups reconstruct the artifact's rows exactly in every mode.
	for _, bits := range []int{32, 16, 8, 1} {
		art, err := src(ctx, mk(bits))
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []int{0, 7, rows - 1} {
			_, vec, err := eng.Vector(ctx, mk(bits), fmt.Sprintf("w%03d", id))
			if err != nil {
				t.Fatal(err)
			}
			for j, v := range vec {
				if math.Float64bits(v) != math.Float64bits(art.Vector(id)[j]) {
					t.Fatalf("bits=%d: vector %d[%d] differs", bits, id, j)
				}
			}
		}
	}
}

// TestQuantizedRefsAreDistinctSnapshots: the same (algo, year, dim, seed)
// at different precisions are different cache entries with different
// ref strings.
func TestQuantizedRefsAreDistinctSnapshots(t *testing.T) {
	r := Ref{Algo: "cbow", Year: 2017, Dim: 16, Seed: 1}
	if r.String() != "cbow-wiki17-d16-s1" {
		t.Fatalf("full-precision ref string %q changed", r.String())
	}
	r.Bits = 8
	if r.String() != "cbow-wiki17-d16-s1-b8" {
		t.Fatalf("quantized ref string %q", r.String())
	}
	src := quantFixtureSource(30)
	eng := New(src)
	ctx := context.Background()
	for _, bits := range []int{0, 8} {
		rr := Ref{Algo: "cbow", Year: 2017, Dim: 16, Seed: 1, Bits: bits}
		if _, err := eng.Words(ctx, rr); err != nil {
			t.Fatal(err)
		}
	}
	if st := eng.Stats(); st.SnapshotLoads != 2 {
		t.Fatalf("loads = %d, want 2 distinct snapshots", st.SnapshotLoads)
	}
}

// TestANNScoresMatchExactPath: in every precision mode a k-limited answer
// is bitwise the head of the word's full exact ranking.
func TestANNScoresMatchExactPath(t *testing.T) {
	const rows = 120
	ctx, eng := context.Background(), New(quantFixtureSource(rows))
	words := []string{"w000", "w041", "w119"}
	for _, bits := range []int{0, 4, 16} {
		ref := Ref{Algo: "cbow", Year: 2017, Dim: 16, Seed: 2, Bits: bits}
		full, err := eng.NeighborsBatch(ctx, ref, words, rows-1)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 10, 64} {
			got, err := eng.NeighborsBatch(ctx, ref, words, k)
			if err != nil {
				t.Fatal(err)
			}
			for i, w := range words {
				neighborsEqualBits(t, fmt.Sprintf("bits=%d k=%d %s", bits, k, w), got[i], full[i][:k])
			}
		}
	}
}

// TestANNIndexCachedAndCharged: a snapshot is loaded once and its bytes
// are charged at load. Queries build nothing beside it, so no neighbor,
// batch or delta query moves the resident footprint.
func TestANNIndexCachedAndCharged(t *testing.T) {
	ctx, eng := context.Background(), New(quantFixtureSource(100))
	for _, bits := range []int{0, 4, 16} {
		ref := Ref{Algo: "cbow", Year: 2017, Dim: 16, Seed: 1, Bits: bits}
		if _, err := eng.Words(ctx, ref); err != nil {
			t.Fatal(err)
		}
		before := eng.Resident()[0].Bytes
		_, err1 := eng.Neighbors(ctx, ref, "w001", 5)
		_, err2 := eng.NeighborsBatch(ctx, ref, []string{"w002", "w003"}, 5)
		_, err3 := eng.NeighborDelta(ctx, ref, ref, []string{"w004"}, 5)
		if err := errors.Join(err1, err2, err3); err != nil {
			t.Fatal(err)
		}
		if after := eng.Resident()[0].Bytes; after != before {
			t.Fatalf("bits=%d: queries moved resident bytes %d -> %d", bits, before, after)
		}
	}
	if st := eng.Stats(); st.SnapshotLoads != 3 || st.BatchedQueries != 15 {
		t.Fatalf("stats = %+v, want 3 loads and 15 queries", st)
	}
}

// TestNeighborDeltaModeFullProbe: in every compact precision mode
// (packed codes, float32) each side of a NeighborDelta is bitwise the
// dequantize-then-float64 oracle's answer for that snapshot.
func TestNeighborDeltaModeFullProbe(t *testing.T) {
	src, ctx := quantFixtureSource(60), context.Background()
	ids, words := []int{3, 17, 42}, []string{"w003", "w017", "w042"}
	for _, bits := range []int{2, 8, 16} {
		a, b := ref17(), ref18()
		a.Bits, b.Bits = bits, bits
		ds, err := New(src).NeighborDelta(ctx, a, b, words, 5)
		artA, errA := src(ctx, a)
		artB, errB := src(ctx, b)
		if err := errors.Join(err, errA, errB); err != nil {
			t.Fatal(err)
		}
		for i, d := range ds {
			label := fmt.Sprintf("bits=%d %s", bits, d.Word)
			neighborsEqualBits(t, label+" A", d.A, referencePrecisionNeighbors(artA, ids[i], 5))
			neighborsEqualBits(t, label+" B", d.B, referencePrecisionNeighbors(artB, ids[i], 5))
		}
	}
}
