package query

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"anchor/internal/embedding"
	"anchor/internal/faults"
)

// flakySource fails the first failures calls with errFlaky, then behaves
// like fixtureSource.
var errFlaky = errors.New("flaky source")

func flakySource(rows int, failures int32, calls *int32) Source {
	inner := fixtureSource(rows, nil)
	var n atomic.Int32
	return func(ctx context.Context, ref Ref) (*embedding.Embedding, error) {
		c := n.Add(1)
		if calls != nil {
			atomic.StoreInt32(calls, c)
		}
		if c <= failures {
			return nil, errFlaky
		}
		return inner(ctx, ref)
	}
}

// TestLoadRetriesTransientFailures: a source that fails twice then
// succeeds serves the query, bitwise identical to a never-failing source,
// with the retries visible in Stats.
func TestLoadRetriesTransientFailures(t *testing.T) {
	ref := Ref{Algo: "mc", Year: 2017, Dim: 8, Seed: 1}
	clean := New(fixtureSource(40, nil))
	want, err := clean.Neighbors(context.Background(), ref, "w001", 5)
	if err != nil {
		t.Fatal(err)
	}

	e := New(flakySource(40, 2, nil))
	got, err := e.Neighbors(context.Background(), ref, "w001", 5)
	if err != nil {
		t.Fatalf("load did not recover: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("neighbor %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if r := e.Stats().Retries; r != 2 {
		t.Fatalf("Retries = %d, want 2", r)
	}
}

// TestLoadRetryExhaustion: a persistently failing source surfaces its
// error (wrapped with the attempt count) after exactly attempts tries.
func TestLoadRetryExhaustion(t *testing.T) {
	var calls int32
	e := New(flakySource(40, 1<<30, &calls))
	_, err := e.Neighbors(context.Background(), Ref{Algo: "mc", Year: 2017, Dim: 8, Seed: 1}, "w001", 5)
	if !errors.Is(err, errFlaky) {
		t.Fatalf("err = %v, want wrapped errFlaky", err)
	}
	if !strings.Contains(err.Error(), "3 attempts") {
		t.Fatalf("err %q does not name the attempt budget", err)
	}
	if got := atomic.LoadInt32(&calls); got != 3 {
		t.Fatalf("source called %d times, want 3", got)
	}
}

// TestLoadNoRetryOnCancellation: the caller's cancellation aborts the
// load immediately — no second try against a gone client.
func TestLoadNoRetryOnCancellation(t *testing.T) {
	var calls int32
	src := func(ctx context.Context, ref Ref) (*embedding.Embedding, error) {
		atomic.AddInt32(&calls, 1)
		return nil, context.Canceled
	}
	e := New(src)
	_, err := e.Neighbors(context.Background(), Ref{Algo: "mc", Year: 2017, Dim: 8, Seed: 1}, "w001", 5)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := atomic.LoadInt32(&calls); got != 1 {
		t.Fatalf("source called %d times after cancellation, want 1", got)
	}
}

// TestDeadlinePropagation: an already-expired context is refused at the
// engine entry points without touching the source.
func TestDeadlinePropagation(t *testing.T) {
	var calls int32
	e := New(fixtureSource(40, &calls))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ref := Ref{Algo: "mc", Year: 2017, Dim: 8, Seed: 1}
	if _, err := e.Neighbors(ctx, ref, "w001", 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("Neighbors err = %v", err)
	}
	if _, _, err := e.Vector(ctx, ref, "w001"); !errors.Is(err, context.Canceled) {
		t.Fatalf("Vector err = %v", err)
	}
	if _, err := e.Words(ctx, ref); !errors.Is(err, context.Canceled) {
		t.Fatalf("Words err = %v", err)
	}
	if _, err := e.NeighborsBatch(ctx, ref, []string{"w001"}, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("NeighborsBatch err = %v", err)
	}
	if calls != 0 {
		t.Fatalf("expired context still reached the source %d times", calls)
	}
}

// TestInjectedLoadErrorRecovered drives the retry loop through the
// fault-injection site instead of a bespoke flaky source: one injected
// I/O error, one retry, answers served.
func TestInjectedLoadErrorRecovered(t *testing.T) {
	e := New(fixtureSource(40, nil))
	defer faults.Activate(faults.MustPlan(1,
		faults.Rule{Site: "query/load", Kind: faults.KindError, Count: 1}))()
	if _, err := e.Neighbors(context.Background(), Ref{Algo: "mc", Year: 2017, Dim: 8, Seed: 1}, "w001", 5); err != nil {
		t.Fatalf("injected transient error not recovered: %v", err)
	}
	if r := e.Stats().Retries; r != 1 {
		t.Fatalf("Retries = %d, want 1", r)
	}
}
