package query

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"anchor/internal/embedding"
)

// errSerialLoads is what pairSource's loads fail with when no second load
// arrives to meet them.
var errSerialLoads = errors.New("loads ran one after the other")

// pairSource is fixtureSource behind a two-party barrier: each load waits
// until another load has arrived, so a load succeeds only while a second
// one runs beside it. A load left alone fails after two seconds with
// errSerialLoads.
func pairSource(rows int) Source {
	inner := fixtureSource(rows, nil)
	var mu sync.Mutex
	gate, waiting := make(chan struct{}), false
	return func(ctx context.Context, ref Ref) (*embedding.Embedding, error) {
		mu.Lock()
		g := gate
		if waiting {
			close(g)
			gate, waiting = make(chan struct{}), false
		} else {
			waiting = true
		}
		mu.Unlock()
		select {
		case <-g:
			return inner(ctx, ref)
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(2 * time.Second):
			mu.Lock()
			if gate == g { // leave the barrier: a retry waits afresh
				waiting = false
			}
			mu.Unlock()
			return nil, errSerialLoads
		}
	}
}

// A cold delta loads its two snapshots side by side, with the counters
// and LRU order of loading refA, then refB; a warm repeat takes two hits
// and no load. Both answer the bytes of two sequential NeighborsBatch
// calls.
func TestNeighborDeltaLoadsColdPairSideBySide(t *testing.T) {
	ctx, words := context.Background(), []string{"w000", "w005", "w033"}
	eng := New(pairSource(120))
	cold, err := eng.NeighborDelta(ctx, ref17(), ref18(), words, 5)
	if err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.SnapshotLoads != 2 || st.SnapshotHits != 0 || st.Batches != 2 {
		t.Fatalf("cold delta: stats %+v, want 2 loads, 0 hits, 2 batches", st)
	}
	res := eng.Resident()
	if len(res) != 2 || res[0].Ref != ref18().String() || res[1].Ref != ref17().String() {
		t.Fatalf("resident after a cold delta: %+v, want %s then %s", res, ref18(), ref17())
	}
	warm, err := eng.NeighborDelta(ctx, ref17(), ref18(), words, 5)
	if err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.SnapshotLoads != 2 || st.SnapshotHits != 2 || st.Batches != 4 {
		t.Fatalf("warm delta: stats %+v, want 2 loads, 2 hits, 4 batches in all", st)
	}

	seq := New(fixtureSource(120, nil))
	na, errA := seq.NeighborsBatch(ctx, ref17(), words, 5)
	nb, errB := seq.NeighborsBatch(ctx, ref18(), words, 5)
	if err := errors.Join(errA, errB); err != nil {
		t.Fatal(err)
	}
	coldBytes, _ := json.Marshal(cold)
	warmBytes, _ := json.Marshal(warm)
	if string(coldBytes) != string(warmBytes) {
		t.Fatalf("cold delta %s\nwarm delta %s", coldBytes, warmBytes)
	}
	for i, d := range cold {
		neighborsEqualBits(t, d.Word+" A", d.A, na[i])
		neighborsEqualBits(t, d.Word+" B", d.B, nb[i])
	}

	// A cold self-delta loads its one snapshot once and then hits it.
	self := New(fixtureSource(120, nil))
	if _, err := self.NeighborDelta(ctx, ref17(), ref17(), words, 5); err != nil {
		t.Fatal(err)
	}
	if st := self.Stats(); st.SnapshotLoads != 1 || st.SnapshotHits != 1 {
		t.Fatalf("cold self-delta: stats %+v, want 1 load and 1 hit", st)
	}
}

// A failed load of refA is the delta's error, even when refB's load
// fails too and fails first; refB's error comes back only when refA
// loaded.
func TestNeighborDeltaErrorOrder(t *testing.T) {
	errA, errB := errors.New("refA failed"), errors.New("refB failed")
	ctx, words := context.Background(), []string{"w001"}
	for _, bothFail := range []bool{true, false} {
		inner := fixtureSource(40, nil)
		bFailed := make(chan struct{})
		var once sync.Once
		src := func(ctx context.Context, ref Ref) (*embedding.Embedding, error) {
			if ref.Year == 2018 {
				once.Do(func() { close(bFailed) })
				return nil, errB
			}
			select { // a serial delta never loads refB before refA
			case <-bFailed:
			case <-time.After(2 * time.Second):
			}
			if bothFail {
				return nil, errA
			}
			return inner(ctx, ref)
		}
		_, err := New(src).NeighborDelta(ctx, ref17(), ref18(), words, 3)
		want, other := errA, errB
		if !bothFail {
			want, other = errB, errA
		}
		if !errors.Is(err, want) || errors.Is(err, other) {
			t.Errorf("both fail %v: err = %v, want %v alone", bothFail, err, want)
		}
	}
}

// A cold delta canceled mid-load returns context.Canceled and leaves no
// goroutine behind.
func TestNeighborDeltaCanceledLeaksNothing(t *testing.T) {
	baseline := runtime.NumGoroutine()
	arrived := make(chan Ref, 2)
	src := func(ctx context.Context, ref Ref) (*embedding.Embedding, error) {
		arrived <- ref
		<-ctx.Done()
		return nil, ctx.Err()
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		for range 2 {
			select { // a serial delta never loads refB before refA
			case <-arrived:
			case <-time.After(2 * time.Second):
			}
		}
		cancel()
	}()
	if _, err := New(src).NeighborDelta(ctx, ref17(), ref18(), []string{"w001"}, 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the canceled delta, %d before", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}
