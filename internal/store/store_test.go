package store

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"anchor/internal/embedding"
)

func testEmbedding(dim int, fill float64) *embedding.Embedding {
	e := embedding.New(3, dim)
	for i := range e.Vectors.Data {
		e.Vectors.Data[i] = fill + float64(i)/7
	}
	e.Meta = embedding.Meta{Algorithm: "mc", Corpus: "wiki17", Dim: dim, Seed: 1, Precision: 32}
	return e
}

func key(dim int) Key {
	return Key{Algo: "mc", Corpus: "wiki17", Dim: dim, Seed: 1, Bits: 32, Scope: "t"}
}

func TestKeyID(t *testing.T) {
	k := Key{Algo: "cbow", Corpus: "wiki18a", Dim: 64, Seed: 1, Bits: 4, Scope: "9f8a"}
	if got, want := k.ID(), "cbow-wiki18a-d64-s1-b4-9f8a"; got != want {
		t.Fatalf("ID = %q, want %q", got, want)
	}
	// Hostile registry names must not escape the cache directory.
	k = Key{Algo: "../evil", Corpus: "a/b", Dim: 1, Seed: 1, Bits: 32, Scope: "s"}
	if got, want := k.ID(), ".._evil-a_b-d1-s1-b32-s"; got != want {
		t.Fatalf("sanitized ID = %q, want %q", got, want)
	}
}

func TestMemoryHitReturnsSamePointer(t *testing.T) {
	s := Memory()
	var computes int
	get := func() (*embedding.Embedding, error) {
		computes++
		return testEmbedding(4, 0), nil
	}
	a, err := s.Get(key(4), true, get)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Get(key(4), true, get)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("memory hit did not return the cached pointer")
	}
	if computes != 1 {
		t.Fatalf("computes = %d, want 1", computes)
	}
	st := s.Stats()
	if st.MemHits != 1 || st.Computes != 1 || st.DiskHits != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDiskPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := s1.Get(key(8), true, func() (*embedding.Embedding, error) {
		return testEmbedding(8, 1.25), nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// A fresh store over the same directory must serve the artifact from
	// disk — no compute — and bitwise identical to the original.
	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Get(key(8), true, func() (*embedding.Embedding, error) {
		t.Fatal("restart hit recomputed")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.Computes != 0 || st.DiskHits != 1 {
		t.Fatalf("stats after reopen = %+v", st)
	}
	if got.Meta != orig.Meta {
		t.Fatalf("meta drifted: %+v vs %+v", got.Meta, orig.Meta)
	}
	for i := range orig.Vectors.Data {
		if got.Vectors.Data[i] != orig.Vectors.Data[i] {
			t.Fatalf("disk roundtrip not bitwise at %d: %v vs %v", i, got.Vectors.Data[i], orig.Vectors.Data[i])
		}
	}
}

func TestNoPersistStaysOffDisk(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, 0)
	if _, err := s.Get(key(2), false, func() (*embedding.Embedding, error) {
		return testEmbedding(2, 0), nil
	}); err != nil {
		t.Fatal(err)
	}
	s2, _ := Open(dir, 0)
	recomputed := false
	if _, err := s2.Get(key(2), false, func() (*embedding.Embedding, error) {
		recomputed = true
		return testEmbedding(2, 0), nil
	}); err != nil {
		t.Fatal(err)
	}
	if !recomputed {
		t.Fatal("persist=false artifact unexpectedly survived restart")
	}
}

func TestGetPairComputesOnceAndCachesBoth(t *testing.T) {
	s := Memory()
	ka, kb := key(4), Key{Algo: "mc", Corpus: "wiki18a", Dim: 4, Seed: 1, Bits: 32, Scope: "t"}
	var computes int
	a1, b1, err := s.GetPair(ka, kb, true, func() (*embedding.Embedding, *embedding.Embedding, error) {
		computes++
		return testEmbedding(4, 0), testEmbedding(4, 9), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	a2, b2, err := s.GetPair(ka, kb, true, func() (*embedding.Embedding, *embedding.Embedding, error) {
		t.Fatal("second GetPair recomputed")
		return nil, nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 || b1 != b2 || computes != 1 {
		t.Fatalf("pair not cached (computes=%d)", computes)
	}
}

func TestSingleflightDedupesConcurrentGets(t *testing.T) {
	s := Memory()
	var computes atomic.Int64
	release := make(chan struct{})
	const n = 16
	var wg sync.WaitGroup
	results := make([]*embedding.Embedding, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, err := s.Get(key(4), false, func() (*embedding.Embedding, error) {
				computes.Add(1)
				<-release
				return testEmbedding(4, 0), nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = e
		}(i)
	}
	close(release)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("concurrent gets computed %d times, want 1", got)
	}
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Fatal("waiters received different artifacts")
		}
	}
}

// TestWaiterRetriesAfterOriginatorCancellation: a healthy request that
// joined another request's flight must not inherit that request's
// context cancellation — it retries with its own compute.
func TestWaiterRetriesAfterOriginatorCancellation(t *testing.T) {
	s := Memory()
	entered := make(chan struct{})
	release := make(chan struct{})
	go func() {
		_, err := s.Get(key(4), false, func() (*embedding.Embedding, error) {
			close(entered)
			<-release
			return nil, context.Canceled // originator's client hung up
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("originator error = %v", err)
		}
	}()
	<-entered

	done := make(chan struct{})
	var got *embedding.Embedding
	var err error
	go func() {
		defer close(done)
		got, err = s.Get(key(4), false, func() (*embedding.Embedding, error) {
			return testEmbedding(4, 0), nil
		})
	}()
	// Let the waiter join the in-flight call, then fail the originator.
	time.Sleep(20 * time.Millisecond)
	close(release)
	<-done
	if err != nil || got == nil {
		t.Fatalf("waiter inherited the originator's cancellation: %v", err)
	}
}

// TestPersistFailureStillServes: a failed disk write must not discard the
// computed artifact or poison the slot.
// A pair compute that fetches one element through that element's own
// slot (a nested Get, which persists it) must not write it a second time;
// the element it newly produced is persisted as usual.
func TestGetPairPersistsOnlyNewlyComputedElements(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ka, kb := key(4), Key{Algo: "mc", Corpus: "wiki18a", Dim: 4, Seed: 1, Bits: 32, Scope: "t"}
	var nested os.FileInfo
	if _, _, err := s.GetPair(ka, kb, true, func() (*embedding.Embedding, *embedding.Embedding, error) {
		a, err := s.Get(ka, true, func() (*embedding.Embedding, error) {
			return testEmbedding(4, 0), nil
		})
		if err != nil {
			return nil, nil, err
		}
		if nested, err = os.Stat(s.binPath(ka)); err != nil {
			return nil, nil, err
		}
		return a, testEmbedding(4, 9), nil
	}); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(s.binPath(ka))
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(nested, fi) {
		t.Errorf("%s was written again after its nested Get persisted it", s.binPath(ka))
	}
	if _, err := os.Stat(s.binPath(kb)); err != nil {
		t.Errorf("newly computed element not persisted: %v", err)
	}
	if st := s.Stats(); st.Computes != 2 || st.PersistErrors != 0 {
		t.Fatalf("stats = %+v, want 2 computes and no persist errors", st)
	}
}

func TestPersistFailureStillServes(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Make every disk write fail.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	e, err := s.Get(key(4), true, func() (*embedding.Embedding, error) {
		return testEmbedding(4, 0), nil
	})
	if err != nil || e == nil {
		t.Fatalf("persist failure surfaced to the caller: %v", err)
	}
	if st := s.Stats(); st.PersistErrors != 1 {
		t.Fatalf("persist errors = %d, want 1", st.PersistErrors)
	}
	// Memory tier still serves it without recompute.
	if _, err := s.Get(key(4), true, func() (*embedding.Embedding, error) {
		t.Fatal("memory tier lost the artifact")
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestComputeErrorPropagatesAndIsNotCached(t *testing.T) {
	s := Memory()
	boom := fmt.Errorf("boom")
	if _, err := s.Get(key(4), false, func() (*embedding.Embedding, error) {
		return nil, boom
	}); err == nil {
		t.Fatal("expected error")
	}
	// The failure must not poison the slot.
	e, err := s.Get(key(4), false, func() (*embedding.Embedding, error) {
		return testEmbedding(4, 0), nil
	})
	if err != nil || e == nil {
		t.Fatalf("recovery get: %v", err)
	}
}

func TestLRUEvictionRefillsFromDisk(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, 1) // room for a single entry
	if _, err := s.Get(key(4), true, func() (*embedding.Embedding, error) {
		return testEmbedding(4, 0), nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(key(8), true, func() (*embedding.Embedding, error) {
		return testEmbedding(8, 0), nil
	}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	// The evicted artifact comes back from the disk tier, not a retrain.
	if _, err := s.Get(key(4), true, func() (*embedding.Embedding, error) {
		t.Fatal("evicted artifact recomputed despite disk tier")
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.DiskHits != 1 {
		t.Fatalf("disk hits = %d, want 1", st.DiskHits)
	}
}
