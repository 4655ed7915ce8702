package query

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"anchor/internal/embedding"
	"anchor/internal/floats"
	"anchor/internal/matrix"
)

// Words returns the vocabulary size of the snapshot under ref (loading it
// if necessary).
func (e *Engine) Words(ctx context.Context, ref Ref) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	s, err := e.snapshot(ctx, ref)
	if err != nil {
		return 0, err
	}
	return s.rows, nil
}

// Neighbors returns the word's k nearest neighbors: a one-word
// NeighborsBatch.
func (e *Engine) Neighbors(ctx context.Context, ref Ref, word string, k int) ([]Neighbor, error) {
	out, err := e.NeighborsBatch(ctx, ref, []string{word}, k)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// fixtureSource builds deterministic random snapshots keyed by Ref, so
// two engines resolve bitwise-identical matrices for the same Ref.
func fixtureSource(rows int, calls *int32) Source {
	var mu sync.Mutex
	return func(ctx context.Context, ref Ref) (*embedding.Embedding, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		mu.Lock()
		if calls != nil {
			*calls++
		}
		mu.Unlock()
		seed := ref.Seed*1000003 + int64(ref.Year)*31 + int64(ref.Dim)
		rng := rand.New(rand.NewSource(seed))
		e := embedding.New(rows, ref.Dim)
		e.Vectors = matrix.NewDenseRand(rows, ref.Dim, 1, rng)
		e.Words = make([]string, rows)
		for i := range e.Words {
			e.Words[i] = fmt.Sprintf("w%03d", i)
		}
		e.Meta = embedding.Meta{Algorithm: ref.Algo, Corpus: fmt.Sprintf("wiki%d", ref.Year%100), Dim: ref.Dim, Seed: ref.Seed, Precision: 32}
		return e, nil
	}
}

func ref17() Ref { return Ref{Algo: "cbow", Year: 2017, Dim: 16, Seed: 1} }
func ref18() Ref { return Ref{Algo: "cbow", Year: 2018, Dim: 16, Seed: 1} }

// referenceNeighbors recomputes one word's top-k with a plain
// cosine-and-sort loop, the engine's independent oracle.
func referenceNeighbors(e *embedding.Embedding, id, k int) []int {
	type cand struct {
		id  int
		sim float64
	}
	var cands []cand
	norm := make([][]float64, e.Rows())
	for i := 0; i < e.Rows(); i++ {
		row := append([]float64(nil), e.Vector(i)...)
		floats.Normalize(row)
		norm[i] = row
	}
	for i := 0; i < e.Rows(); i++ {
		if i == id {
			continue
		}
		cands = append(cands, cand{i, floats.Dot(norm[id], norm[i])})
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
	out := make([]int, k)
	for i := range out {
		out[i] = cands[i].id
	}
	return out
}

func TestNeighborsMatchesReference(t *testing.T) {
	src := fixtureSource(60, nil)
	eng := New(src, WithWorkers(1))
	ctx := context.Background()
	e, _ := src(ctx, ref17())
	for _, word := range []string{"w000", "w007", "w059"} {
		ns, err := eng.Neighbors(ctx, ref17(), word, 5)
		if err != nil {
			t.Fatal(err)
		}
		id := 0
		fmt.Sscanf(word, "w%d", &id)
		want := referenceNeighbors(e, id, 5)
		if len(ns) != len(want) {
			t.Fatalf("%s: %d neighbors, want %d", word, len(ns), len(want))
		}
		for i := range ns {
			if ns[i].ID != want[i] {
				t.Fatalf("%s neighbor %d: id %d, want %d (got %+v)", word, i, ns[i].ID, want[i], ns)
			}
			if ns[i].Word != fmt.Sprintf("w%03d", want[i]) {
				t.Fatalf("%s neighbor %d: word %q", word, i, ns[i].Word)
			}
		}
	}
}

// queryAll fires one Neighbors call per word concurrently and collects
// the answers in word order.
func queryAll(t *testing.T, eng *Engine, ref Ref, words []string, k int) [][]Neighbor {
	t.Helper()
	out := make([][]Neighbor, len(words))
	var wg sync.WaitGroup
	errs := make([]error, len(words))
	for i, w := range words {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i], errs[i] = eng.Neighbors(context.Background(), ref, w, k)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %s: %v", words[i], err)
		}
	}
	return out
}

// TestNeighborsBitwiseSingletonVsBatched pins that a query's answer does
// not depend on the block it ran in: concurrent singletons on a 4-worker
// engine, each scored as its own block, and one 200-word NeighborsBatch,
// split into blocks of 128 and 72 rows, all match serial one-worker
// singletons bit for bit.
func TestNeighborsBitwiseSingletonVsBatched(t *testing.T) {
	all := make([]string, 200)
	for i := range all {
		all[i] = fmt.Sprintf("w%03d", i)
	}
	words := make([]string, 64)
	for i := range words {
		words[i] = all[i*3%200]
	}

	singleton := New(fixtureSource(200, nil), WithWorkers(1))
	want := make([][]Neighbor, len(all))
	for i, w := range all {
		ns, err := singleton.Neighbors(context.Background(), ref17(), w, 7)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ns
	}
	equal := func(label string, got, want []Neighbor) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %+v != singleton %+v", label, got, want)
		}
		neighborsEqualBits(t, label, got, want)
	}

	subject := New(fixtureSource(200, nil), WithWorkers(4))
	for i, ns := range queryAll(t, subject, ref17(), words, 7) {
		equal("concurrent "+words[i], ns, want[i*3%200])
	}
	// No query waits for company: every concurrent singleton is its own
	// block.
	st := subject.Stats()
	if st.BatchedQueries != int64(len(words)) || st.Batches != st.BatchedQueries {
		t.Fatalf("%d blocks for %d queries, want one block per query", st.Batches, st.BatchedQueries)
	}

	// All 200 words in one request: a 128-row block, then a 72-row one.
	block, err := subject.NeighborsBatch(context.Background(), ref17(), all, 7)
	if err != nil {
		t.Fatal(err)
	}
	if n := subject.Stats().Batches - st.Batches; n != 2 {
		t.Fatalf("200-word NeighborsBatch scored %d blocks, want 2", n)
	}
	for i, ns := range block {
		equal("block "+all[i], ns, want[i])
	}
}

func TestNeighborsWorkerInvariance(t *testing.T) {
	words := []string{"w000", "w013", "w112", "w199"}
	var answers [][][]Neighbor
	for _, workers := range []int{1, 3, 8} {
		eng := New(fixtureSource(200, nil), WithWorkers(workers))
		ns, err := eng.NeighborsBatch(context.Background(), ref17(), words, 9)
		if err != nil {
			t.Fatal(err)
		}
		answers = append(answers, ns)
	}
	for i := 1; i < len(answers); i++ {
		if !reflect.DeepEqual(answers[0], answers[i]) {
			t.Fatalf("answers differ between worker counts: %+v vs %+v", answers[0], answers[i])
		}
	}
}

func TestVector(t *testing.T) {
	src := fixtureSource(40, nil)
	eng := New(src)
	ctx := context.Background()
	id, vec, err := eng.Vector(ctx, ref17(), "w017")
	if err != nil {
		t.Fatal(err)
	}
	if id != 17 {
		t.Fatalf("id = %d, want 17", id)
	}
	e, _ := src(ctx, ref17())
	if !reflect.DeepEqual(vec, e.Vector(17)) {
		t.Fatal("vector mismatch")
	}
	// The returned vector is a copy: mutating it must not corrupt the
	// resident snapshot.
	vec[0] = 1e9
	_, vec2, _ := eng.Vector(ctx, ref17(), "w017")
	if vec2[0] == 1e9 {
		t.Fatal("Vector returned shared storage")
	}
}

func TestUnknownWord(t *testing.T) {
	eng := New(fixtureSource(10, nil))
	_, _, err := eng.Vector(context.Background(), ref17(), "absent")
	var uw *UnknownWordError
	if !errors.As(err, &uw) || uw.Word != "absent" {
		t.Fatalf("err = %v, want UnknownWordError for %q", err, "absent")
	}
	_, err = eng.Neighbors(context.Background(), ref17(), "absent", 3)
	if !errors.As(err, &uw) {
		t.Fatalf("Neighbors err = %v, want UnknownWordError", err)
	}
}

func TestSnapshotLRUBudget(t *testing.T) {
	var calls int32
	// Each 16-dim, 50-row snapshot costs norm + pinned raw (2*50*16*8
	// bytes) plus the word index (50 4-byte words at 48 bytes overhead
	// each); budget exactly two snapshots.
	const snapBytes = 2*50*16*8 + 50*(4+48)
	eng := New(fixtureSource(50, &calls), WithBudget(2*snapBytes))
	ctx := context.Background()
	refs := []Ref{
		{Algo: "cbow", Year: 2017, Dim: 16, Seed: 1},
		{Algo: "cbow", Year: 2017, Dim: 16, Seed: 2},
		{Algo: "cbow", Year: 2017, Dim: 16, Seed: 3},
	}
	for _, r := range refs {
		if _, err := eng.Neighbors(ctx, r, "w001", 3); err != nil {
			t.Fatal(err)
		}
	}
	if eng.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", eng.Stats().Evictions)
	}
	// refs[0] was evicted: querying it reloads (calls 4); refs[2] is
	// resident: no reload.
	if _, err := eng.Neighbors(ctx, refs[2], "w001", 3); err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("source calls = %d, want 3 (resident snapshot reloaded)", calls)
	}
	if _, err := eng.Neighbors(ctx, refs[0], "w001", 3); err != nil {
		t.Fatal(err)
	}
	if calls != 4 {
		t.Fatalf("source calls = %d, want 4 (evicted snapshot not reloaded)", calls)
	}
}

func TestSnapshotSingleflight(t *testing.T) {
	var calls int32
	eng := New(fixtureSource(80, &calls))
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := eng.Neighbors(context.Background(), ref17(), "w002", 4); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if calls != 1 {
		t.Fatalf("source calls = %d, want 1 (concurrent loads must share)", calls)
	}
}

func TestNeighborDelta(t *testing.T) {
	eng := New(fixtureSource(120, nil))
	words := []string{"w000", "w005", "w033"}
	ds, err := eng.NeighborDelta(context.Background(), ref17(), ref18(), words, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != len(words) {
		t.Fatalf("%d deltas, want %d", len(ds), len(words))
	}
	for i, d := range ds {
		if d.Word != words[i] {
			t.Fatalf("delta %d word %q, want %q", i, d.Word, words[i])
		}
		if len(d.A) != 5 || len(d.B) != 5 {
			t.Fatalf("delta %s neighbor lists %d/%d, want 5/5", d.Word, len(d.A), len(d.B))
		}
		// Recompute the overlap from the returned lists.
		shared := 0
		for _, a := range d.A {
			for _, b := range d.B {
				if a.ID == b.ID {
					shared++
					break
				}
			}
		}
		if shared != d.Shared {
			t.Fatalf("delta %s shared %d, lists say %d", d.Word, d.Shared, shared)
		}
		if want := float64(shared) / 5; d.Overlap != want {
			t.Fatalf("delta %s overlap %v, want %v", d.Word, d.Overlap, want)
		}
	}
	// Identical refs must give perfect overlap.
	same, err := eng.NeighborDelta(context.Background(), ref17(), ref17(), words, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range same {
		if d.Overlap != 1 {
			t.Fatalf("self-delta overlap %v, want 1", d.Overlap)
		}
	}
}

func TestNeighborsRejectsBadK(t *testing.T) {
	eng := New(fixtureSource(10, nil))
	if _, err := eng.Neighbors(context.Background(), ref17(), "w001", 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := eng.NeighborsBatch(context.Background(), ref17(), []string{"w001"}, -2); err == nil {
		t.Fatal("k<0 accepted")
	}
	// k larger than the vocabulary clamps instead of failing.
	ns, err := eng.Neighbors(context.Background(), ref17(), "w001", 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 9 {
		t.Fatalf("clamped k: %d neighbors, want 9", len(ns))
	}
}

// TestANNModeErrors: batch and delta queries share the one exact path's
// argument contract: an unknown word is an *UnknownWordError, and an
// empty request answers nothing.
func TestANNModeErrors(t *testing.T) {
	ctx, eng := context.Background(), New(fixtureSource(40, nil))
	var uw *UnknownWordError
	if _, err := eng.NeighborsBatch(ctx, ref17(), []string{"w001", "nope"}, 3); !errors.As(err, &uw) || uw.Word != "nope" {
		t.Fatalf("batch unknown word: %v", err)
	}
	if _, err := eng.NeighborDelta(ctx, ref17(), ref18(), []string{"nope"}, 3); !errors.As(err, &uw) {
		t.Fatalf("delta unknown word: %v", err)
	}
	ns, err := eng.NeighborsBatch(ctx, ref17(), nil, 3)
	ds, derr := eng.NeighborDelta(ctx, ref17(), ref18(), nil, 3)
	if err != nil || derr != nil || len(ns) != 0 || len(ds) != 0 {
		t.Fatalf("empty requests: %v, %v, %d and %d answers", err, derr, len(ns), len(ds))
	}
}

func TestSourceErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	eng := New(func(ctx context.Context, ref Ref) (*embedding.Embedding, error) { return nil, boom })
	if _, err := eng.Neighbors(context.Background(), ref17(), "w001", 3); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

func TestCanceledLoadRetries(t *testing.T) {
	// A load canceled by its originator's context must not poison waiters
	// that are still alive.
	block := make(chan struct{})
	var calls int32
	var mu sync.Mutex
	src := func(ctx context.Context, ref Ref) (*embedding.Embedding, error) {
		mu.Lock()
		calls++
		first := calls == 1
		mu.Unlock()
		if first {
			<-block
			return nil, context.Canceled
		}
		return fixtureSource(20, nil)(ctx, ref)
	}
	eng := New(src)
	canceledCtx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := eng.Neighbors(canceledCtx, ref17(), "w001", 3)
		done <- err
	}()
	// Wait until the first load is in flight, then let a second client
	// queue behind it.
	for {
		mu.Lock()
		inFlight := calls == 1
		mu.Unlock()
		if inFlight {
			break
		}
		time.Sleep(time.Millisecond)
	}
	second := make(chan error, 1)
	go func() {
		_, err := eng.Neighbors(context.Background(), ref17(), "w001", 3)
		second <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	close(block)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("originator err = %v, want canceled", err)
	}
	if err := <-second; err != nil {
		t.Fatalf("waiter err = %v, want retried success", err)
	}
}
