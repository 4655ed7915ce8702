package anchor_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"anchor"
)

// TestServiceQueryPrecisionReadPath: a request's Bits routes the read path
// through the quantized snapshot — reports carry the served bits, vector
// lookups return the quantized rows bitwise, and the snapshot goes
// resident as packed codes.
func TestServiceQueryPrecisionReadPath(t *testing.T) {
	svc := newTinyService(t)
	ctx := context.Background()
	e, err := svc.Train(ctx, "mc", 2017, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The serving path learns its clip on the Wiki'17 snapshot, exactly
	// like QuantizePair with the same embedding on both sides.
	q, _ := anchor.QuantizePair(e, e, 8)
	words := []string{e.Words[3], e.Words[77]}

	vrep, err := svc.Query(ctx, anchor.QueryRequest{Algo: "mc", Dim: 8, Words: words, Bits: 8})
	if err != nil {
		t.Fatal(err)
	}
	if vrep.Bits != 8 {
		t.Fatalf("vectors report bits %d, want 8", vrep.Bits)
	}
	for _, v := range vrep.Vectors {
		for j, x := range v.Vector {
			if math.Float64bits(x) != math.Float64bits(q.Vector(v.ID)[j]) {
				t.Fatalf("quantized vector %s differs from QuantizePair reference", v.Word)
			}
		}
	}

	nrep, err := svc.Neighbors(ctx, anchor.QueryRequest{Algo: "mc", Dim: 8, Words: words, K: 4, Bits: 8})
	if err != nil {
		t.Fatal(err)
	}
	if nrep.Bits != 8 || len(nrep.Results[0].Neighbors) != 4 {
		t.Fatalf("neighbors report bits=%d k-results=%d", nrep.Bits, len(nrep.Results[0].Neighbors))
	}

	// Full-precision default still reports 32 and serves the float64 rows.
	full, err := svc.Query(ctx, anchor.QueryRequest{Algo: "mc", Dim: 8, Words: words})
	if err != nil {
		t.Fatal(err)
	}
	if full.Bits != 32 {
		t.Fatalf("default report bits %d, want 32", full.Bits)
	}

	var codes bool
	for _, in := range svc.ResidentSnapshots() {
		if in.Bits == 8 && in.Mode == "codes" {
			codes = true
		}
	}
	if !codes {
		t.Fatal("no codes-mode resident snapshot after an 8-bit query")
	}

	var inv *anchor.InvalidRequestError
	if _, err := svc.Neighbors(ctx, anchor.QueryRequest{Algo: "mc", Dim: 8, Words: words, Bits: 33}); !errors.As(err, &inv) {
		t.Fatalf("precision 33 error = %v, want InvalidRequestError", err)
	}
	if _, err := svc.Neighbors(ctx, anchor.QueryRequest{Algo: "mc", Words: words}); !errors.As(err, &inv) {
		t.Fatalf("dim 0 without serving budget error = %v, want InvalidRequestError", err)
	}
}

// TestServiceServingBudget: with a serving budget configured, dim-0
// queries have their (dim, bits) cell chosen by the selection algorithm
// under dim*bits <= budget, and the choice matches an explicit Select
// over the same grid.
func TestServiceServingBudget(t *testing.T) {
	const budget = 16
	svc := newTinyService(t, anchor.WithServingBudget(budget))
	if svc.ServingBudget() != budget {
		t.Fatalf("ServingBudget() = %d, want %d", svc.ServingBudget(), budget)
	}
	ctx := context.Background()
	e, err := svc.Train(ctx, "mc", 2017, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	words := []string{e.Words[5]}

	nrep, err := svc.Neighbors(ctx, anchor.QueryRequest{Algo: "mc", Words: words, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if nrep.Dim*nrep.Bits > budget {
		t.Fatalf("auto-selected cell d=%d b=%d exceeds budget %d", nrep.Dim, nrep.Bits, budget)
	}
	cfg := svc.Config()
	rep, err := svc.Select(ctx, anchor.SelectRequest{
		Algo: "mc", Dims: cfg.Dims, Precisions: cfg.Precisions, BudgetBits: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Best == nil {
		t.Fatal("Select found no candidate within budget")
	}
	if nrep.Dim != rep.Best.Dim || nrep.Bits != rep.Best.Precision {
		t.Fatalf("auto-selection chose d=%d b=%d, Select's best is d=%d b=%d",
			nrep.Dim, nrep.Bits, rep.Best.Dim, rep.Best.Precision)
	}

	// The cached choice serves later queries without re-selecting.
	again, err := svc.Query(ctx, anchor.QueryRequest{Algo: "mc", Words: words})
	if err != nil {
		t.Fatal(err)
	}
	if again.Dim != nrep.Dim || again.Bits != nrep.Bits {
		t.Fatalf("second budget query cell d=%d b=%d differs from first d=%d b=%d",
			again.Dim, again.Bits, nrep.Dim, nrep.Bits)
	}
}
