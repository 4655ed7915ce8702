package main

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	res, ok := parseLine("BenchmarkNeighborsPrecision/bits=8-8         \t       3\t  69766318 ns/op\t   1622048 bytes/query\t       917.3 queries/s")
	if !ok {
		t.Fatal("result line not parsed")
	}
	if res.Name != "BenchmarkNeighborsPrecision/bits=8" {
		t.Fatalf("name %q", res.Name)
	}
	if res.Iterations != 3 {
		t.Fatalf("iterations %d", res.Iterations)
	}
	want := map[string]float64{"ns/op": 69766318, "bytes/query": 1622048, "queries/s": 917.3}
	for unit, v := range want {
		if res.Metrics[unit] != v {
			t.Fatalf("metric %s = %v, want %v", unit, res.Metrics[unit], v)
		}
	}

	// Sub-benchmark names keep internal dashes; only the GOMAXPROCS
	// suffix is stripped.
	res, ok = parseLine("BenchmarkFoo/pre-sorted-16 100 5 ns/op")
	if !ok || res.Name != "BenchmarkFoo/pre-sorted" {
		t.Fatalf("dash handling: ok=%v name=%q", ok, res.Name)
	}

	for _, line := range []string{
		"PASS",
		"ok  \tanchor/internal/query\t2.5s",
		"goos: linux",
		"--- FAIL: TestX",
		"BenchmarkBroken notanumber 5 ns/op",
	} {
		if _, ok := parseLine(line); ok {
			t.Fatalf("non-result line parsed: %q", line)
		}
	}
}

func TestFoldRepeatedLines(t *testing.T) {
	var lines []Result
	for _, l := range []string{
		"BenchmarkA/x-2 3 500 ns/op 40 queries/s",
		"BenchmarkA/x-2 3 100 ns/op 10 queries/s",
		"BenchmarkB-2 1 7 ns/op",
		"BenchmarkA/x-2 3 300 ns/op 30 queries/s",
		"BenchmarkA/x-2 3 200 ns/op 20 queries/s",
		"BenchmarkA/x-2 3 400 ns/op 50 queries/s",
	} {
		res, ok := parseLine(l)
		if !ok {
			t.Fatalf("line not parsed: %q", l)
		}
		lines = append(lines, res)
	}
	single := lines[2]
	got := fold(lines)
	if len(got) != 2 || got[0].Name != "BenchmarkA/x" || got[1].Name != "BenchmarkB" {
		t.Fatalf("folded entries out of first-appearance order: %+v", got)
	}
	a := got[0]
	if a.Samples != 5 || a.Iterations != 3 {
		t.Fatalf("samples %d iterations %d, want 5 and 3", a.Samples, a.Iterations)
	}
	for _, c := range []struct {
		name      string
		got, want map[string]float64
	}{
		{"median", a.Metrics, map[string]float64{"ns/op": 300, "queries/s": 30}},
		{"p25", a.P25, map[string]float64{"ns/op": 200, "queries/s": 20}},
		{"p75", a.P75, map[string]float64{"ns/op": 400, "queries/s": 40}},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Fatalf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	if got := quantile([]float64{4, 1, 3, 2}, 0.5); got != 2.5 {
		t.Fatalf("even-count median = %v, want 2.5", got)
	}

	// A name seen once keeps the single-line shape: no spread fields.
	if !reflect.DeepEqual(got[1], single) {
		t.Fatalf("single line changed by folding: %+v vs %+v", got[1], single)
	}
	data, err := json.Marshal(got[1])
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"p25", "p75", "samples"} {
		if strings.Contains(string(data), key) {
			t.Fatalf("single-line entry carries %q: %s", key, data)
		}
	}
}
