package main

import (
	"encoding/hex"
	"math"
	"testing"
)

// tinyOracle is a four-row snapshot whose cosines against row 0 are
// 1, 0.8, 0.6 and -1.
func tinyOracle() *oracle {
	o := &oracle{
		s:     snap{"mc", 2017, 2, 32, 1},
		words: []string{"a", "b", "c", "d"},
		ids:   map[string]int{"a": 0, "b": 1, "c": 2, "d": 3},
		rows:  [][]float64{{1, 0}, {0.8, 0.6}, {0.6, 0.8}, {-2, 0}},
		sims:  map[int][]float64{},
	}
	for _, r := range o.rows {
		o.unit = append(o.unit, unitRow(r))
	}
	return o
}

func TestCheckNeighbors(t *testing.T) {
	good := []neighbor{{"b", 1, 0.8}, {"c", 2, 0.6}}
	for _, tc := range []struct {
		name string
		got  []neighbor
		ok   bool
	}{
		{"exact", good, true},
		{"last-bit difference", []neighbor{{"b", 1, 0.8 + 1e-15}, {"c", 2, 0.6}}, true},
		{"wrong score", []neighbor{{"b", 1, 0.8 + 1e-7}, {"c", 2, 0.6}}, false},
		{"wrong order", []neighbor{{"c", 2, 0.6}, {"b", 1, 0.8}}, false},
		{"better row missing", []neighbor{{"b", 1, 0.8}, {"d", 3, -1}}, false},
		{"self", []neighbor{{"a", 0, 1}, {"b", 1, 0.8}}, false},
		{"wrong word", []neighbor{{"x", 1, 0.8}, {"c", 2, 0.6}}, false},
		{"short", good[:1], false},
	} {
		err := tinyOracle().checkNeighbors("a", 2, tc.got)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok %v", tc.name, err, tc.ok)
		}
	}
}

func TestRefsCheck(t *testing.T) {
	o := tinyOracle()
	sum := snapshotDigest(o.words, []float64{1, 0, 0.8, 0.6, 0.6, 0.8, -2, 0}, o.rows)
	r := &refs{want: map[string]string{"tiny": hex.EncodeToString(sum[:])}}
	r.check("tiny", sum)
	if errs := r.mismatches(); len(errs) != 0 {
		t.Fatalf("pinned digest rejected: %v", errs)
	}
	o.rows[3][0] = math.Nextafter(-2, 0)
	r.check("tiny", snapshotDigest(o.words, []float64{1, 0, 0.8, 0.6, 0.6, 0.8, -2, 0}, o.rows))
	r.check("unpinned", sum)
	if errs := r.mismatches(); len(errs) != 2 {
		t.Fatalf("got %d mismatches (%v), want a changed row and a missing entry", len(errs), errs)
	}
}

func TestCheckSelect(t *testing.T) {
	dims, precs := []int{8}, []int{1, 32}
	best := candidate{Dim: 8, Bits: 1, MemoryBits: 8, Value: 0.2, WithinBudget: true}
	good := selectAnswer{Seed: 7, BudgetBits: 16, Candidates: []candidate{
		{Dim: 8, Bits: 32, MemoryBits: 256, Value: 0.1},
		best,
	}, Best: &best}
	if err := checkSelect(good, 7, dims, precs, 16); err != nil {
		t.Fatalf("valid ranking rejected: %v", err)
	}
	swapped := good
	swapped.Candidates = []candidate{good.Candidates[1], good.Candidates[0]}
	noBest := good
	noBest.Best = nil
	for name, bad := range map[string]selectAnswer{"out of order": swapped, "best missing": noBest} {
		if err := checkSelect(bad, 7, dims, precs, 16); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
