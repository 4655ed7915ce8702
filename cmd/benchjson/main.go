// Command benchjson converts `go test -bench` text output into a
// machine-readable JSON report, so CI can archive benchmark numbers
// (queries/s, ns/op, bytes/query, ...) as a diffable artifact instead of
// a log to eyeball.
//
// Usage:
//
//	go test -bench ... | tee bench.txt
//	benchjson -o BENCH_query.json < bench.txt
//
// Every benchmark result line ("BenchmarkName-8  3  123 ns/op  9 queries/s")
// becomes one entry carrying the benchmark name (GOMAXPROCS suffix
// stripped), the iteration count, and every reported value keyed by its
// unit. Repeated lines of one name (go test -count N) fold into one entry
// that holds each value's median plus its quartiles and the line count.
// Context lines (goos, goarch, cpu, pkg) are captured once.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
)

// Result is one benchmark line.
type Result struct {
	// Name is the benchmark name with the -GOMAXPROCS suffix stripped,
	// e.g. "BenchmarkNeighborsPrecision/bits=8".
	Name string `json:"name"`
	// Iterations is the measured b.N.
	Iterations int64 `json:"iterations"`
	// Metrics maps unit -> value for every "value unit" pair on the
	// line: "ns/op", "queries/s", "bytes/query", "B/op", "allocs/op", ...
	// For a folded entry it holds each unit's median, and Iterations the
	// median b.N.
	Metrics map[string]float64 `json:"metrics"`
	// P25 and P75 map unit -> the lower and upper quartile over the
	// folded lines. Samples counts those lines. All three are omitted
	// when the name appeared on one line only.
	P25     map[string]float64 `json:"p25,omitempty"`
	P75     map[string]float64 `json:"p75,omitempty"`
	Samples int                `json:"samples,omitempty"`
}

// Report is the emitted JSON document.
type Report struct {
	Goos    string   `json:"goos,omitempty"`
	Goarch  string   `json:"goarch,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Pkgs    []string `json:"pkgs,omitempty"`
	Results []Result `json:"results"`
}

// parseLine parses one "Benchmark..." result line, reporting ok=false
// for anything else (PASS, ok, headers, failures).
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	res := Result{Name: name, Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		res.Metrics[fields[i+1]] = v
	}
	return res, true
}

// fold merges the result lines of each benchmark name into one entry, in
// order of first appearance. A name seen once passes through unchanged;
// a repeated name carries the median, quartiles and count of its values.
func fold(lines []Result) []Result {
	var names []string
	byName := map[string][]Result{}
	for _, r := range lines {
		if _, ok := byName[r.Name]; !ok {
			names = append(names, r.Name)
		}
		byName[r.Name] = append(byName[r.Name], r)
	}
	out := make([]Result, 0, len(names))
	for _, name := range names {
		rs := byName[name]
		if len(rs) == 1 {
			out = append(out, rs[0])
			continue
		}
		iters := make([]float64, len(rs))
		values := map[string][]float64{}
		for i, r := range rs {
			iters[i] = float64(r.Iterations)
			for _, unit := range slices.Sorted(maps.Keys(r.Metrics)) {
				values[unit] = append(values[unit], r.Metrics[unit])
			}
		}
		res := Result{
			Name:       name,
			Iterations: int64(math.Round(quantile(iters, 0.5))),
			Metrics:    map[string]float64{},
			P25:        map[string]float64{},
			P75:        map[string]float64{},
			Samples:    len(rs),
		}
		for unit, vs := range values {
			res.P25[unit] = quantile(vs, 0.25)
			res.Metrics[unit] = quantile(vs, 0.5)
			res.P75[unit] = quantile(vs, 0.75)
		}
		out = append(out, res)
	}
	return out
}

// quantile returns the q-quantile of vs, interpolating linearly between
// neighboring order statistics. It sorts vs in place.
func quantile(vs []float64, q float64) float64 {
	slices.Sort(vs)
	pos := q * float64(len(vs)-1)
	lo := int(pos)
	if lo+1 == len(vs) {
		return vs[lo]
	}
	return vs[lo] + (pos-float64(lo))*(vs[lo+1]-vs[lo])
}

func run(out string) error {
	var rep Report
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			rep.Pkgs = append(rep.Pkgs, strings.TrimPrefix(line, "pkg: "))
		default:
			if res, ok := parseLine(line); ok {
				rep.Results = append(rep.Results, res)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(rep.Results) == 0 {
		return fmt.Errorf("no benchmark result lines on stdin")
	}
	rep.Results = fold(rep.Results)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(out, data, 0o644)
}

func main() {
	out := flag.String("o", "-", "output file (- = stdout)")
	flag.Parse()
	if err := run(*out); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
