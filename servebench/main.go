// Command servebench is anchor's serving benchmark. It starts `anchor serve`
// as a child process, drives it over real HTTP on loopback with a seeded
// closed-loop request mix, checks every answer, and prints one JSON result
// line. run.sh builds both binaries and invokes it:
//
//	bash servebench/run.sh --workload dim-alternating --seed 1 --seconds 10 --trace 0
//
// Workloads (see workload.go):
//
//	dim-alternating  the chaos suite's neighbor and vector mix, dimensions 8 and 16 in turn
//	budget-frontier  the same mix as neighbor deltas over the cells of a 256-bit serving budget
//	select-cold      the documented /v1/select grid at a training seed new on every request
//
// Set-up (timed as setup_s, median of three) starts a server over an empty
// cache directory and issues the requests that train, persist and load
// everything the workload reads. The measured phase follows an untimed
// warm-up; its closed loop runs two clients for the read workloads (below
// saturation, so latency is service time rather than a CPU queue) and one
// for select-cold. With --trace 0 the result carries the end-to-end
// metrics: latency p50/p90, throughput and set-up time. With --trace 1 it
// carries per-layer metrics instead, from a separate traced run:
// client-side spans of each request (server time, body transfer, client
// overhead), healthz counter deltas for the query engine and artifact
// store, cache-directory growth, and a serial probe phase that times one
// call into each layer on an otherwise idle server.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: dim-alternating, budget-frontier or select-cold")
		seed    = flag.Int64("seed", 1, "input seed: the same seed sends the same requests")
		seconds = flag.Int("seconds", 10, "length of the measured phase")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
		bin     = flag.String("anchor", "", "path of the anchor binary")
		workdir = flag.String("workdir", ".bench_build", "directory for cache directories and logs")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *bin == "" || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "servebench: need -anchor, -seconds >= 1 and -workload one of %s\n", workloadNames())
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	res, err := run(ctx, w, *bin, *workdir, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	stop()
	var out []byte
	if err == nil {
		out, err = json.Marshal(res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// setupRuns is how many set-ups a run times; setup_s is their median.
const setupRuns = 3

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func run(ctx context.Context, w workload, bin, workdir string, seed int64, dur time.Duration, trace bool) (*result, error) {
	setups := setupRuns
	if trace {
		setups = 1 // per-layer runs report no set-up time
	}
	root, err := filepath.Abs(filepath.Join(workdir, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	hc := newHTTPClient(4 * w.clients)
	ref := newRefs()

	// Set-up: a fresh process over an empty cache directory, brought to
	// the measured state. All but the last are torn down again.
	var e *env
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		dir := filepath.Join(root, fmt.Sprintf("setup-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		start := time.Now()
		if e, err = startServer(ctx, hc, bin, w.config, filepath.Join(dir, "cache"), filepath.Join(dir, "serve.log")); err != nil {
			return nil, err
		}
		e.ref = ref
		if err := w.setup(ctx, e, seed); err != nil {
			e.stop()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		if i < setups-1 {
			e.stop()
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
	}
	defer e.stop()

	p, err := w.plan(ctx, e, seed)
	if err != nil {
		return nil, fmt.Errorf("oracles: %w", err)
	}
	before, err := e.counters(ctx)
	if err != nil {
		return nil, err
	}
	dirBefore := e.dirBytes()
	ld := drive(ctx, e, p, w.clients, seed, w.warmup, dur, trace)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	after, err := e.counters(ctx)
	if err != nil {
		return nil, err
	}
	dirGrowth := e.dirBytes() - dirBefore

	if ld.firstErr != nil {
		fmt.Fprintln(os.Stderr, "servebench: failed request:", ld.firstErr)
	}
	if len(ld.samples) == 0 {
		return nil, errors.New("no request completed in the measured phase")
	}
	res := &result{Attempted: ld.attempted, Failed: ld.failed + checkAnswers(ctx, e, p)}
	res.Correct = res.Failed == 0
	if !trace {
		res.Metrics = endToEnd(ld.samples, dur, setupTimes)
		return res, nil
	}
	if res.Metrics, err = probe(ctx, e, p.probe, seed); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	layerMetrics(res.Metrics, ld, after.minus(before), dirGrowth)
	return res, nil
}

// checkAnswers runs the semantic check on the first answer to every
// distinct request (later answers already had to repeat it byte for byte)
// and the plan's own post-run checks, and adds the answers that differed
// from their pinned digests. It returns how many answers were wrong.
func checkAnswers(ctx context.Context, e *env, p *plan) int64 {
	problems := e.ref.mismatches()
	wrong := int64(len(problems))
	for _, r := range p.requests() {
		first := r.first.Load()
		if first == nil {
			continue // never answered 200: already counted as failed
		}
		if err := r.check(*first); err != nil {
			wrong += r.count.Load()
			problems = append(problems, err)
		}
	}
	if p.verify != nil {
		if err := p.verify(ctx, e); err != nil {
			wrong++
			problems = append(problems, err)
		}
	}
	for i, err := range problems {
		if i == 5 {
			fmt.Fprintf(os.Stderr, "servebench: ... and %d more wrong answers\n", len(problems)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "servebench: wrong answer:", err)
	}
	return wrong
}

// windowSamples is the fewest answers a window of the measured phase needs
// before its own quantiles count.
const windowSamples = 200

// endToEnd reports latency p50 and p90 and throughput as medians over
// about one-second windows of the measured phase (by completion time), so
// the host running slow for a second or two moves them little. A phase
// with too few answers for that (select-cold) is a single window. p90 is
// the tail every workload's sample supports: select-cold answers about a
// hundred requests in a run, so some ten lie beyond it. The phase starts
// at the first sampled request's start, not at the end of the warm-up,
// which a warm-up request may overrun by most of a select.
func endToEnd(samples []sample, dur time.Duration, setupTimes []float64) map[string]metric {
	first, last := samples[0].done-samples[0].lat, samples[0].done
	for _, s := range samples {
		first, last = min(first, s.done-s.lat), max(last, s.done)
	}
	n := max(1, min(int(dur/time.Second), len(samples)/windowSamples))
	width := (last - first) / time.Duration(n)
	lat := make([][]float64, n)
	for _, s := range samples {
		i := min(n-1, int((s.done-first)/width))
		lat[i] = append(lat[i], ms(s.lat))
	}
	var p50, p90, rps []float64
	for _, l := range lat {
		if len(l) > 0 {
			p50 = append(p50, quantile(l, 0.50))
			p90 = append(p90, quantile(l, 0.90))
		}
		rps = append(rps, float64(len(l))/width.Seconds())
	}
	return map[string]metric{
		"p50_ms":         {quantile(p50, 0.5), "ms"},
		"p90_ms":         {quantile(p90, 0.5), "ms"},
		"throughput_rps": {quantile(rps, 0.5), "1/s"},
		"setup_s":        {quantile(setupTimes, 0.5), "s"},
	}
}

// layerMetrics adds the traced spans of the measured phase and the
// server's counter deltas over it (d) to m. Counts are per request sent.
func layerMetrics(m map[string]metric, ld load, d counters, dirGrowth int64) {
	srv, xfer, other := make([]float64, len(ld.samples)), make([]float64, len(ld.samples)), make([]float64, len(ld.samples))
	var bytes float64
	for i, s := range ld.samples {
		srv[i], xfer[i], other[i] = ms(s.server), ms(s.transfer), ms(s.lat-s.server-s.transfer)
		bytes += float64(s.bytes)
	}
	n := float64(ld.attempted)
	hits := d.Store.MemHits + d.Store.DiskHits
	m["server_ms"] = metric{quantile(srv, 0.5), "ms"}
	m["transfer_ms"] = metric{quantile(xfer, 0.5), "ms"}
	m["client_ms"] = metric{quantile(other, 0.5), "ms"}
	m["resp_kib"] = metric{bytes / 1024 / float64(len(ld.samples)), "KiB"}
	m["lru_hits_per_req"] = metric{float64(d.Query.SnapshotHits) / n, "count"}
	m["lru_loads"] = metric{float64(d.Query.SnapshotLoads), "count"}
	m["resident_kib"] = metric{float64(d.Query.ResidentBytes) / 1024, "KiB"}
	m["batch_size"] = metric{ratio(d.Query.BatchedQueries, d.Query.Batches), "count"}
	m["store_hit_ratio"] = metric{ratio(hits, hits+d.Store.Computes), "ratio"}
	m["store_computes_per_req"] = metric{float64(d.Store.Computes) / n, "count"}
	m["store_write_kib_per_req"] = metric{float64(dirGrowth) / 1024 / n, "KiB"}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
