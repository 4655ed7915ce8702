package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one request answered in the measured phase. done is its end as
// an offset from the start of the phase. server (request written to first
// response byte) and transfer (first byte to last) are recorded only when
// tracing.
type sample struct {
	lat, done, server, transfer time.Duration
	bytes                       int
}

type load struct {
	samples           []sample
	attempted, failed int64
	firstErr          error
}

// drive runs the closed loop: each of clients goroutines sends its next
// request as soon as the previous one is answered. Requests started during
// the warm-up are sent and checked but not sampled.
func drive(ctx context.Context, e *env, p *plan, clients int, seed int64, warm, dur time.Duration, trace bool) load {
	measureFrom := time.Now().Add(warm)
	end := measureFrom.Add(dur)
	per := make([]load, clients)
	var wg sync.WaitGroup
	for i := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			next := p.picker(rand.New(rand.NewSource(seed*7919 + int64(i))))
			per[i] = loop(ctx, e, next, measureFrom, end, trace)
		}()
	}
	wg.Wait()
	var out load
	for _, l := range per {
		out.samples = append(out.samples, l.samples...)
		out.attempted += l.attempted
		out.failed += l.failed
		if out.firstErr == nil {
			out.firstErr = l.firstErr
		}
	}
	return out
}

func loop(ctx context.Context, e *env, next func() *request, measureFrom, end time.Time, trace bool) load {
	var out load
	for ctx.Err() == nil {
		start := time.Now()
		if !start.Before(end) {
			break
		}
		r := next()
		code, body, s, err := e.timed(ctx, r, trace)
		out.attempted++
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("status %d: %s", code, body)
		}
		if err == nil && !r.record(body) {
			err = errors.New("answer differs from the first answer to the same request")
		}
		if err != nil {
			out.failed++
			if out.firstErr == nil {
				out.firstErr = fmt.Errorf("%s %s %s: %w", r.method, r.path, r.body, err)
			}
		}
		if !start.Before(measureFrom) {
			s.done = start.Add(s.lat).Sub(measureFrom)
			out.samples = append(out.samples, s)
		}
	}
	return out
}

// timed sends r and reads its answer, timing the whole exchange and, when
// tracing, its server and transfer spans.
func (e *env) timed(ctx context.Context, r *request, trace bool) (int, []byte, sample, error) {
	var s sample
	start := time.Now()
	var wrote, first atomic.Int64 // offsets from start, set by transport goroutines
	if trace {
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			WroteRequest:         func(httptrace.WroteRequestInfo) { wrote.Store(int64(time.Since(start))) },
			GotFirstResponseByte: func() { first.Store(int64(time.Since(start))) },
		})
	}
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequestWithContext(ctx, r.method, e.base+r.path, body)
	if err != nil {
		return 0, nil, s, err
	}
	resp, err := e.hc.Do(req)
	if err != nil {
		return 0, nil, s, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.lat = time.Since(start)
	s.bytes = len(out)
	if trace {
		s.server = time.Duration(first.Load() - wrote.Load())
		s.transfer = s.lat - time.Duration(first.Load())
	}
	return resp.StatusCode, out, s, err
}

// probe times single calls into each layer on the otherwise idle server,
// interleaved round by round so drift hits every probe alike:
//
//	livez_ms      HTTP round trip through the mux and JSON encoder only
//	vectors_ms    + admission, query parsing and a resident-snapshot lookup
//	neighbors_ms  + one query through the gather window, kernel and top-k
//	batch_ms      a two-word query: the batch path, no gather window
//	train_ms      one cold /v1/train: training plus artifact persistence
//	rank_ms       /v1/select over the freshly trained pair: align,
//	              quantize and measure, no training
func probe(ctx context.Context, e *env, s snap, seed int64) (map[string]metric, error) {
	var nb neighborsAnswer
	if err := e.call(ctx, http.MethodPost, "/v1/neighbors", neighborsBody{
		Algo: s.Algo, Words: []string{anchorWord}, Dim: s.Dim, K: 1, Year: s.Year, Bits: s.Bits, Seed: s.Seed,
	}, &nb); err != nil {
		return nil, err
	}
	if len(nb.Results) != 1 || len(nb.Results[0].Neighbors) != 1 {
		return nil, fmt.Errorf("%s: no neighbor for %q", s, anchorWord)
	}
	second := nb.Results[0].Neighbors[0].Word
	nbReq := func(words ...string) *request {
		return jsonRequest("/v1/neighbors", neighborsBody{
			Algo: s.Algo, Words: words, Dim: s.Dim, Year: s.Year, Bits: s.Bits, Seed: s.Seed,
		}, nil)
	}
	calls := []struct {
		name string
		r    *request
	}{
		{"livez_ms", &request{method: http.MethodGet, path: "/v1/livez"}},
		{"vectors_ms", &request{method: http.MethodGet, path: vectorsPath(s, []string{anchorWord})}},
		{"neighbors_ms", nbReq(anchorWord)},
		{"batch_ms", nbReq(anchorWord, second)},
	}
	times := map[string][]float64{}
	timeOne := func(name string, r *request) error {
		start := time.Now()
		code, body, err := e.do(ctx, r)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("status %d: %s", code, body)
		}
		if err != nil {
			return fmt.Errorf("%s %s: %w", r.method, r.path, err)
		}
		times[name] = append(times[name], ms(time.Since(start)))
		return nil
	}
	for round := 0; round < 200; round++ {
		for _, c := range calls {
			if err := timeOne(c.name, c.r); err != nil {
				return nil, err
			}
		}
	}
	for j := int64(0); j < 3; j++ {
		ps := trainingSeed(seed, 500+j)
		for _, year := range []int{2017, 2018} {
			r := jsonRequest("/v1/train", map[string]any{"algo": "mc", "year": year, "dim": 8, "seed": ps}, nil)
			if err := timeOne("train_ms", r); err != nil {
				return nil, err
			}
		}
		r := jsonRequest("/v1/select", map[string]any{
			"algo": "mc", "dims": []int{8}, "precisions": []int{1, 32}, "seed": ps,
		}, nil)
		if err := timeOne("rank_ms", r); err != nil {
			return nil, err
		}
	}
	out := make(map[string]metric, len(times))
	for name, ts := range times {
		out[name] = metric{quantile(ts, 0.5), "ms"}
	}
	return out, nil
}
