//go:build amd64 && !amd64.v3

package experiments

import (
	"context"
	"errors"
	"testing"
	"time"
)

// A table1 run canceled after its first training stops with
// context.Canceled, caches nothing half-done, and the same runner then
// reproduces table1 at its pinned digest (paperGolden, whose build
// constraint this file shares).
func TestRunCanceledMidwayThenResumes(t *testing.T) {
	r := NewRunner(SmallConfig())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer cancel()
		for r.Store().Stats().Computes == 0 {
			select {
			case <-done:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	tables, err := Run(ctx, r, "table1")
	close(done)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run: err = %v (%d tables), want context.Canceled", err, len(tables))
	}
	if tables != nil {
		t.Fatalf("canceled run returned %d tables", len(tables))
	}

	tables, err = Run(context.Background(), r, "table1")
	if err != nil {
		t.Fatal(err)
	}
	if got := tablesDigest(t, tables); got != paperGolden["table1"] {
		t.Fatalf("table1 after a canceled run: digest %s, pinned %s", got, paperGolden["table1"])
	}
}
