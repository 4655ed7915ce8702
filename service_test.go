package anchor_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"anchor"
)

// tinyServiceConfig keeps service tests at the experiments test scale:
// one cheap algorithm, a two-step dimension ladder, the test corpus.
func tinyServiceConfig() anchor.ExperimentConfig {
	cfg := anchor.SmallExperimentConfig()
	cfg.Algorithms = []string{"mc"}
	cfg.Dims = []int{8, 16}
	cfg.Precisions = []int{1, 32}
	cfg.Seeds = []int64{1}
	cfg.SentimentTasks = []string{"sst2"}
	cfg.NEREnabled = false
	return cfg
}

func newTinyService(t *testing.T, opts ...anchor.ServiceOption) *anchor.Service {
	t.Helper()
	svc, err := anchor.NewService(append([]anchor.ServiceOption{anchor.WithConfig(tinyServiceConfig())}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// TestAlignQuantizeMatchesInlinedSequence pins the AlignQuantize helper
// bitwise to the align -> meta-tag -> quantize ritual it replaces.
func TestAlignQuantizeMatchesInlinedSequence(t *testing.T) {
	e17, e18 := trainPair(t)

	// Inlined legacy sequence on clones.
	a, b := e17.Clone(), e18.Clone()
	b.AlignTo(a)
	b.Meta.Corpus += "a"
	wq17, wq18 := anchor.QuantizePair(a, b, 4)

	gq17, gq18 := anchor.AlignQuantize(e17, e18, 4)

	if e18.Meta.Corpus != "wiki18a" {
		t.Fatalf("AlignQuantize did not tag the aligned corpus: %q", e18.Meta.Corpus)
	}
	for i := range wq17.Vectors.Data {
		if gq17.Vectors.Data[i] != wq17.Vectors.Data[i] {
			t.Fatalf("q17 bit mismatch at %d", i)
		}
	}
	for i := range wq18.Vectors.Data {
		if gq18.Vectors.Data[i] != wq18.Vectors.Data[i] {
			t.Fatalf("q18 bit mismatch at %d", i)
		}
	}
	if gq17.Meta != wq17.Meta || gq18.Meta != wq18.Meta {
		t.Fatalf("meta mismatch: %+v vs %+v / %+v vs %+v", gq17.Meta, wq17.Meta, gq18.Meta, wq18.Meta)
	}
}

// TestServiceMeasuresBitwiseAcrossWorkers is the service-level
// determinism contract: measure values must be bitwise identical for any
// worker count (and therefore identical to the library grid path, which
// shares the same code).
func TestServiceMeasuresBitwiseAcrossWorkers(t *testing.T) {
	ctx := context.Background()
	s1 := newTinyService(t, anchor.WithWorkers(1))
	s4 := newTinyService(t, anchor.WithWorkers(4))

	r1, err := s1.MeasureCell(ctx, "mc", 8, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := s4.MeasureCell(ctx, "mc", 8, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Values) != 5 {
		t.Fatalf("expected 5 measures, got %d", len(r1.Values))
	}
	for name, v := range r1.Values {
		if r4.Values[name] != v {
			t.Fatalf("measure %s: workers=1 %v != workers=4 %v", name, v, r4.Values[name])
		}
	}

	st1, err := s1.Stability(ctx, "mc", "sst2", 8, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	st4, err := s4.Stability(ctx, "mc", "sst2", 8, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st1.Disagreement != st4.Disagreement || st1.Accuracy != st4.Accuracy {
		t.Fatalf("stability drifted across workers: %+v vs %+v", st1, st4)
	}
}

// TestServiceSecondQueryServedFromStore asserts the caching acceptance
// criterion: an identical second request must not retrain.
func TestServiceSecondQueryServedFromStore(t *testing.T) {
	ctx := context.Background()
	svc := newTinyService(t)
	if _, err := svc.MeasureCell(ctx, "mc", 8, 1, 1); err != nil {
		t.Fatal(err)
	}
	computes := svc.StoreStats().Computes
	if computes == 0 {
		t.Fatal("first query should have trained something")
	}
	if _, err := svc.MeasureCell(ctx, "mc", 8, 1, 1); err != nil {
		t.Fatal(err)
	}
	if got := svc.StoreStats().Computes; got != computes {
		t.Fatalf("second identical query retrained: computes %d -> %d", computes, got)
	}
}

// TestServiceRestartServedFromDisk asserts the persistence acceptance
// criterion: a fresh service over the same cache dir serves bitwise
// identical embeddings without any compute.
func TestServiceRestartServedFromDisk(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s1 := newTinyService(t, anchor.WithCacheDir(dir))
	e17, e18, err := s1.Pair(ctx, "mc", 8, 1)
	if err != nil {
		t.Fatal(err)
	}

	s2 := newTinyService(t, anchor.WithCacheDir(dir))
	f17, f18, err := s2.Pair(ctx, "mc", 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	st := s2.StoreStats()
	if st.Computes != 0 {
		t.Fatalf("restart retrained: %+v", st)
	}
	if st.DiskHits == 0 {
		t.Fatalf("restart did not touch the disk tier: %+v", st)
	}
	for i := range e17.Vectors.Data {
		if f17.Vectors.Data[i] != e17.Vectors.Data[i] {
			t.Fatalf("e17 restart not bitwise at %d", i)
		}
	}
	for i := range e18.Vectors.Data {
		if f18.Vectors.Data[i] != e18.Vectors.Data[i] {
			t.Fatalf("e18 restart not bitwise at %d", i)
		}
	}
}

func TestServiceUnknownNames(t *testing.T) {
	ctx := context.Background()
	svc := newTinyService(t)
	var unk *anchor.UnknownNameError

	if _, err := svc.Train(ctx, "elmo", 2017, 8, 1); !errors.As(err, &unk) {
		t.Fatalf("Train: want UnknownNameError, got %v", err)
	}
	if unk.Kind != "algorithm" {
		t.Fatalf("kind = %q", unk.Kind)
	}
	if _, err := svc.Stability(ctx, "mc", "imdb", 8, 1, 1); !errors.As(err, &unk) {
		t.Fatalf("Stability: want UnknownNameError, got %v", err)
	}
	if unk.Kind != "task" {
		t.Fatalf("kind = %q", unk.Kind)
	}
	if _, err := svc.Select(ctx, anchor.SelectRequest{
		Algo: "mc", Dims: []int{8}, Precisions: []int{1}, Measure: "vibes",
	}); !errors.As(err, &unk) {
		t.Fatalf("Select: want UnknownNameError, got %v", err)
	}
	if unk.Kind != "measure" {
		t.Fatalf("kind = %q", unk.Kind)
	}
}

// An experiment over a config naming an unregistered algorithm returns
// the registry's error instead of panicking inside the grid.
func TestServiceExperimentUnknownAlgorithm(t *testing.T) {
	cfg := tinyServiceConfig()
	cfg.Algorithms = []string{"elmo"}
	svc, err := anchor.NewService(anchor.WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	var unk *anchor.UnknownNameError
	if err := svc.Experiment(context.Background(), "table1", &buf); !errors.As(err, &unk) {
		t.Fatalf("want UnknownNameError, got %v", err)
	}
	if unk.Kind != "algorithm" || buf.Len() != 0 {
		t.Fatalf("kind = %q, rendered %q", unk.Kind, buf.String())
	}
}

func TestServiceCanceledContext(t *testing.T) {
	svc := newTinyService(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.MeasureCell(ctx, "mc", 8, 1, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if _, err := svc.Stability(ctx, "mc", "sst2", 8, 1, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestServiceDefaults checks that zero request values select seed 1 and
// full precision.
func TestServiceDefaults(t *testing.T) {
	ctx := context.Background()
	svc := newTinyService(t)
	rep, err := svc.MeasureCell(ctx, "mc", 8, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Precision != 32 || rep.Seed != 1 {
		t.Fatalf("defaults not applied: %+v", rep)
	}
	if rep.MemoryBits != 256 {
		t.Fatalf("memory bits = %d", rep.MemoryBits)
	}
}

// TestServiceSelect exercises the selection endpoint shape: ranking,
// budget filtering, and the best pick.
func TestServiceSelect(t *testing.T) {
	ctx := context.Background()
	svc := newTinyService(t)
	rep, err := svc.Select(ctx, anchor.SelectRequest{
		Algo: "mc", Dims: []int{8, 16}, Precisions: []int{1, 32}, BudgetBits: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Candidates) != 4 {
		t.Fatalf("candidates = %d, want 4", len(rep.Candidates))
	}
	for i := 1; i < len(rep.Candidates); i++ {
		if rep.Candidates[i].Value < rep.Candidates[i-1].Value {
			t.Fatal("candidates not sorted by value")
		}
	}
	if rep.Best == nil {
		t.Fatal("no best candidate")
	}
	if rep.Best.MemoryBits > 64 {
		t.Fatalf("best violates budget: %+v", rep.Best)
	}
	if rep.Measure != "eigenspace-instability" {
		t.Fatalf("default measure = %q", rep.Measure)
	}

	// A sweep whose dims exceed the configured ladder anchors EIS at the
	// request's largest dimension (the paper's protocol), not the
	// ladder's maximum.
	rep2, err := svc.Select(ctx, anchor.SelectRequest{
		Algo: "mc", Dims: []int{8, 24}, Precisions: []int{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Candidates) != 2 {
		t.Fatalf("ladder-exceeding select: %+v", rep2)
	}
}

// TestServiceQueryReadPath covers the Service's read-path surface:
// vector lookups match the trained rows, neighbors come from the same
// snapshot, deltas aggregate correctly, and validation errors carry the
// right types.
func TestServiceQueryReadPath(t *testing.T) {
	svc := newTinyService(t)
	ctx := context.Background()
	e, err := svc.Train(ctx, "mc", 2017, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	words := []string{e.Words[3], e.Words[77]}

	vrep, err := svc.Query(ctx, anchor.QueryRequest{Algo: "mc", Dim: 8, Words: words})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vrep.Vectors {
		if v.Word != words[i] {
			t.Fatalf("vector %d word %q, want %q", i, v.Word, words[i])
		}
		for j, x := range v.Vector {
			if x != e.Vector(v.ID)[j] {
				t.Fatalf("vector %s differs from trained row", v.Word)
			}
		}
	}

	nrep, err := svc.Neighbors(ctx, anchor.QueryRequest{Algo: "mc", Dim: 8, Words: words, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if nrep.K != 4 || len(nrep.Results) != 2 || len(nrep.Results[0].Neighbors) != 4 {
		t.Fatalf("neighbors report: %+v", nrep)
	}
	for _, r := range nrep.Results {
		for _, n := range r.Neighbors {
			if n.Word == r.Word {
				t.Fatalf("word %s listed as its own neighbor", r.Word)
			}
		}
	}

	drep, err := svc.NeighborDelta(ctx, anchor.DeltaRequest{Algo: "mc", Dim: 8, Words: words, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(drep.Results) != 2 {
		t.Fatalf("delta report: %+v", drep)
	}
	mean := (drep.Results[0].Overlap + drep.Results[1].Overlap) / 2
	if drep.MeanOverlap != mean {
		t.Fatalf("mean overlap %v, want %v", drep.MeanOverlap, mean)
	}
	// The '17 side of the delta must agree with the plain 2017 neighbors.
	for i, d := range drep.Results {
		for j, n := range d.A {
			if n != nrep.Results[i].Neighbors[j] {
				t.Fatalf("delta '17 neighbors differ from Neighbors answer for %s", d.Word)
			}
		}
	}

	// Validation: unknown algorithm, bad year, bad k, no words, oov word.
	var unk *anchor.UnknownNameError
	if _, err := svc.Neighbors(ctx, anchor.QueryRequest{Algo: "elmo", Dim: 8, Words: words}); !errors.As(err, &unk) {
		t.Fatalf("unknown algo err = %v", err)
	}
	var inv *anchor.InvalidRequestError
	if _, err := svc.Neighbors(ctx, anchor.QueryRequest{Algo: "mc", Dim: 8, Words: words, Year: 1999}); !errors.As(err, &inv) {
		t.Fatalf("bad year err = %v", err)
	}
	if _, err := svc.Neighbors(ctx, anchor.QueryRequest{Algo: "mc", Dim: 8, Words: words, K: -1}); !errors.As(err, &inv) {
		t.Fatalf("bad k err = %v", err)
	}
	if _, err := svc.Query(ctx, anchor.QueryRequest{Algo: "mc", Dim: 8}); !errors.As(err, &inv) {
		t.Fatalf("no words err = %v", err)
	}
	var uw *anchor.UnknownWordError
	if _, err := svc.Query(ctx, anchor.QueryRequest{Algo: "mc", Dim: 8, Words: []string{"definitely-not-a-word"}}); !errors.As(err, &uw) {
		t.Fatalf("oov err = %v", err)
	}

	// The read path reuses store artifacts: all of the above trained the
	// 2017 and 2018 snapshots exactly once each.
	if st := svc.StoreStats(); st.Computes != 2 {
		t.Fatalf("computes = %d, want 2 (wiki17 + wiki18)", st.Computes)
	}
	if qs := svc.QueryStats(); qs.SnapshotLoads != 2 || qs.SnapshotHits == 0 {
		t.Fatalf("query stats: %+v", qs)
	}
}

// TestServiceANNSidecarRoundTrip: cache directories written while the
// approximate neighbor path existed hold .ann sidecars beside the
// artifacts. A service restarted over one answers neighbor queries as
// before, from the disk tier, and leaves the stray sidecars alone.
func TestServiceANNSidecarRoundTrip(t *testing.T) {
	ctx, dir := context.Background(), t.TempDir()
	s1 := newTinyService(t, anchor.WithCacheDir(dir))
	e, err := s1.Train(ctx, "mc", 2017, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	words := []string{e.Words[3], e.Words[77]}
	rep1, err1 := s1.Neighbors(ctx, anchor.QueryRequest{Algo: "mc", Dim: 8, Words: words, K: 5})
	bins, err2 := filepath.Glob(filepath.Join(dir, "*.bin"))
	for _, b := range bins {
		err2 = errors.Join(err2, os.WriteFile(strings.TrimSuffix(b, ".bin")+"-ivf8.ann", []byte("stale"), 0o644))
	}
	s2 := newTinyService(t, anchor.WithCacheDir(dir))
	rep2, err3 := s2.Neighbors(ctx, anchor.QueryRequest{Algo: "mc", Dim: 8, Words: words, K: 5})
	if err := errors.Join(err1, err2, err3); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep1, rep2) {
		t.Fatalf("answers differ across the restart: %+v vs %+v", rep1, rep2)
	}
	st := s2.StoreStats()
	if sidecars, _ := filepath.Glob(filepath.Join(dir, "*.ann")); st.Computes != 0 || st.DiskHits == 0 ||
		st.Quarantines != 0 || len(bins) == 0 || len(sidecars) != len(bins) {
		t.Fatalf("restart over %d artifacts and %d sidecars: %+v", len(bins), len(sidecars), st)
	}
}
