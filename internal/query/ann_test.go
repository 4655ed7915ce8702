package query

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"anchor/internal/ann"
)

// annWords returns the fixture vocabulary w000..w<rows-1>.
func annWords(rows int) []string {
	words := make([]string, rows)
	for i := range words {
		words[i] = fmt.Sprintf("w%03d", i)
	}
	return words
}

// TestANNFullProbeBitwiseExact is the golden oracle test the package doc
// promises: at nprobe >= NList the IVF path scans every row exactly once
// with the exact path's per-candidate arithmetic, so its answers — ids
// AND score bits — must equal the exact engine's, in every precision
// mode and for every worker count.
func TestANNFullProbeBitwiseExact(t *testing.T) {
	const rows, k = 60, 7
	src := quantFixtureSource(rows)
	ctx := context.Background()
	words := annWords(rows)
	full := Mode{ANN: true, NProbe: rows} // >= any NList
	for _, bits := range []int{0, 4, 16} {
		ref := Ref{Algo: "cbow", Year: 2017, Dim: 16, Seed: 1, Bits: bits}
		exactEng := New(src)
		want, err := exactEng.NeighborsBatch(ctx, ref, words, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3, 8} {
			label := fmt.Sprintf("bits=%d workers=%d", bits, workers)
			eng := New(src, WithWorkers(workers))
			got, err := eng.NeighborsBatchMode(ctx, ref, words, k, full)
			if err != nil {
				t.Fatal(err)
			}
			for id := range words {
				neighborsEqualBits(t, label+" batch", got[id], want[id])
			}
			// The singleton entry point takes the same path.
			ns, err := eng.NeighborsMode(ctx, ref, words[11], k, full)
			if err != nil {
				t.Fatal(err)
			}
			neighborsEqualBits(t, label+" singleton", ns, want[11])
		}
	}
}

// TestANNScoresMatchExactPath pins the per-candidate contract at a
// *partial* probe: the ANN answer may miss deep-tail ids, but every id it
// does report must carry the exact path's score for that id, bitwise.
// Results must also keep the exact path's order (similarity descending,
// id-ascending ties) and exclude the query word.
func TestANNScoresMatchExactPath(t *testing.T) {
	const rows, k = 120, 10
	src := quantFixtureSource(rows)
	ctx := context.Background()
	words := annWords(rows)
	for _, bits := range []int{0, 4, 16} {
		ref := Ref{Algo: "cbow", Year: 2017, Dim: 16, Seed: 2, Bits: bits}
		eng := New(src)
		// Exact full ranking: every row's score for every query word.
		exact, err := eng.NeighborsBatch(ctx, ref, words, rows-1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.NeighborsBatchMode(ctx, ref, words, k, Mode{ANN: true, NProbe: 2})
		if err != nil {
			t.Fatal(err)
		}
		for qi, ns := range got {
			scoreOf := map[int]float64{}
			for _, nb := range exact[qi] {
				scoreOf[nb.ID] = nb.Score
			}
			for i, nb := range ns {
				if nb.ID == qi {
					t.Fatalf("bits=%d query %d: self in answer", bits, qi)
				}
				want, ok := scoreOf[nb.ID]
				if !ok || math.Float64bits(nb.Score) != math.Float64bits(want) {
					t.Fatalf("bits=%d query %d: id %d score %v, exact path says %v",
						bits, qi, nb.ID, nb.Score, want)
				}
				if i > 0 {
					prev := ns[i-1]
					if nb.Score > prev.Score || (nb.Score == prev.Score && nb.ID < prev.ID) {
						t.Fatalf("bits=%d query %d: answer out of order at %d", bits, qi, i)
					}
				}
			}
		}
	}
}

// TestANNWorkerInvariance: the lazily built index and the fanned-out
// search must give bitwise-identical answers for every worker count, at
// the default (partial) nprobe where index structure actually matters.
func TestANNWorkerInvariance(t *testing.T) {
	const rows, k = 150, 9
	src := quantFixtureSource(rows)
	ctx := context.Background()
	words := annWords(rows)
	ref := Ref{Algo: "cbow", Year: 2017, Dim: 16, Seed: 3}
	mode := Mode{ANN: true}
	golden, err := New(src, WithWorkers(1)).NeighborsBatchMode(ctx, ref, words, k, mode)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		got, err := New(src, WithWorkers(workers)).NeighborsBatchMode(ctx, ref, words, k, mode)
		if err != nil {
			t.Fatal(err)
		}
		for id := range words {
			neighborsEqualBits(t, fmt.Sprintf("workers=%d word %d", workers, id), got[id], golden[id])
		}
	}
}

// TestANNIndexCachedAndCharged: the index builds once per snapshot (later
// ANN queries reuse it), the stats counters track queries and builds, and
// the built index's bytes are charged to the snapshot's resident
// footprint.
func TestANNIndexCachedAndCharged(t *testing.T) {
	const rows, k = 100, 5
	src := quantFixtureSource(rows)
	ctx := context.Background()
	ref := Ref{Algo: "cbow", Year: 2017, Dim: 16, Seed: 1}
	eng := New(src)
	if _, err := eng.Words(ctx, ref); err != nil {
		t.Fatal(err)
	}
	before := eng.Resident()[0].Bytes

	if _, err := eng.NeighborsMode(ctx, ref, "w001", k, Mode{ANN: true}); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.ANNQueries != 1 || st.ANNBuilds != 1 {
		t.Fatalf("stats after first ANN query = %+v", st)
	}
	after := eng.Resident()[0].Bytes
	if after <= before {
		t.Fatalf("index bytes not charged: %d -> %d", before, after)
	}

	if _, err := eng.NeighborsBatchMode(ctx, ref, []string{"w002", "w003"}, k, Mode{ANN: true}); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.ANNQueries != 3 {
		t.Fatalf("ANNQueries = %d, want 3", st.ANNQueries)
	}
	if st.ANNBuilds != 1 {
		t.Fatalf("index rebuilt: ANNBuilds = %d, want 1", st.ANNBuilds)
	}
	if got := eng.Resident()[0].Bytes; got != after {
		t.Fatalf("bytes changed on cached-index query: %d -> %d", after, got)
	}

	// Exact queries never touch the ANN counters.
	if _, err := eng.Neighbors(ctx, ref, "w004", k); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.ANNQueries != 3 || st.ANNBuilds != 1 {
		t.Fatalf("exact query moved ANN stats: %+v", st)
	}
}

// TestANNSourceWiring: a configured ANNSource owns index resolution — it
// sees the snapshot's identity and geometry, its result is cached like a
// local build, and an index it serves without invoking the build callback
// (the warm-sidecar case) keeps ANNBuilds at zero.
func TestANNSourceWiring(t *testing.T) {
	const rows, k = 80, 5
	src := quantFixtureSource(rows)
	ctx := context.Background()
	ref := Ref{Algo: "cbow", Year: 2017, Dim: 16, Seed: 6}

	// Pass-through source: delegates to build, records what it was asked.
	var calls int32
	var gotCfg ann.Config
	var gotRows, gotDim int
	passthrough := func(ctx context.Context, r Ref, cfg ann.Config, rows, dim int, build func() (*ann.Index, error)) (*ann.Index, error) {
		atomic.AddInt32(&calls, 1)
		gotCfg, gotRows, gotDim = cfg, rows, dim
		return build()
	}
	eng := New(src, WithWorkers(2), WithANNSource(passthrough))
	want, err := eng.NeighborsMode(ctx, ref, "w007", k, Mode{ANN: true, NProbe: rows})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.NeighborsMode(ctx, ref, "w008", k, Mode{ANN: true}); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("source called %d times, want 1 (index cached)", calls)
	}
	if gotCfg.Seed != ref.Seed || gotCfg.Workers != 2 || gotRows != rows || gotDim != 16 {
		t.Fatalf("source saw cfg=%+v rows=%d dim=%d", gotCfg, gotRows, gotDim)
	}
	if st := eng.Stats(); st.ANNBuilds != 1 {
		t.Fatalf("pass-through source builds = %d, want 1", st.ANNBuilds)
	}

	// Warm source: serves a pre-built index; the engine must not build.
	exact, err := New(src).NeighborsBatch(ctx, ref, []string{"w007"}, k)
	if err != nil {
		t.Fatal(err)
	}
	neighborsEqualBits(t, "pass-through full probe vs exact", want, exact[0])
	var warmIx *ann.Index
	warmEng := New(src, WithANNSource(func(ctx context.Context, r Ref, cfg ann.Config, rows, dim int, build func() (*ann.Index, error)) (*ann.Index, error) {
		return warmIx, nil
	}))
	// Build the index out of band, as store.GetANN would from a sidecar.
	s, err := warmEng.snapshot(ctx, ref)
	if err != nil {
		t.Fatal(err)
	}
	warmIx = ann.Build(s.normalizedRows(1), ann.Config{Seed: ref.Seed})
	got, err := warmEng.NeighborsMode(ctx, ref, "w007", k, Mode{ANN: true, NProbe: rows})
	if err != nil {
		t.Fatal(err)
	}
	neighborsEqualBits(t, "warm source full probe vs exact", got, exact[0])
	if st := warmEng.Stats(); st.ANNBuilds != 0 {
		t.Fatalf("warm source triggered %d builds, want 0", st.ANNBuilds)
	}

	// A failing source surfaces its error (wrapped with the ref).
	boom := errors.New("sidecar store on fire")
	failEng := New(src, WithANNSource(func(ctx context.Context, r Ref, cfg ann.Config, rows, dim int, build func() (*ann.Index, error)) (*ann.Index, error) {
		return nil, boom
	}))
	if _, err := failEng.NeighborsMode(ctx, ref, "w007", k, Mode{ANN: true}); !errors.Is(err, boom) {
		t.Fatalf("source error not surfaced: %v", err)
	}
}

// TestANNModeErrors: the ANN entry points keep the exact path's argument
// contract, and a zero Mode routes to the exact path untouched.
func TestANNModeErrors(t *testing.T) {
	const rows = 40
	src := quantFixtureSource(rows)
	ctx := context.Background()
	ref := Ref{Algo: "cbow", Year: 2017, Dim: 16, Seed: 1}
	eng := New(src)

	if _, err := eng.NeighborsBatchMode(ctx, ref, []string{"w001"}, 0, Mode{ANN: true}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := eng.NeighborsMode(ctx, ref, "nope", 3, Mode{ANN: true}); err == nil {
		t.Fatal("unknown word accepted")
	} else {
		var uw *UnknownWordError
		if !errors.As(err, &uw) {
			t.Fatalf("unknown word error type: %v", err)
		}
	}
	// Zero mode delegates to the exact path: no index, no ANN counters.
	if _, err := eng.NeighborsMode(ctx, ref, "w001", 3, Mode{}); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.ANNQueries != 0 || st.ANNBuilds != 0 {
		t.Fatalf("zero mode touched ANN stats: %+v", st)
	}
	// Empty batch is a no-op answer, not a panic.
	out, err := eng.NeighborsBatchMode(ctx, ref, nil, 3, Mode{ANN: true})
	if err != nil || len(out) != 0 {
		t.Fatalf("empty batch: %v, %d answers", err, len(out))
	}
}

// TestNeighborDeltaModeFullProbe: the instability measure through the
// ANN path at full probe equals the exact measure bitwise.
func TestNeighborDeltaModeFullProbe(t *testing.T) {
	const rows, k = 60, 5
	src := quantFixtureSource(rows)
	ctx := context.Background()
	words := []string{"w003", "w017", "w042"}
	eng := New(src)
	want, err := eng.NeighborDelta(ctx, ref17(), ref18(), words, k)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.NeighborDeltaMode(ctx, ref17(), ref18(), words, k, Mode{ANN: true, NProbe: rows})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].Word != want[i].Word || got[i].Shared != want[i].Shared ||
			math.Float64bits(got[i].Overlap) != math.Float64bits(want[i].Overlap) {
			t.Fatalf("delta %d: got %+v, want %+v", i, got[i], want[i])
		}
		neighborsEqualBits(t, "delta A "+words[i], got[i].A, want[i].A)
		neighborsEqualBits(t, "delta B "+words[i], got[i].B, want[i].B)
	}
}
