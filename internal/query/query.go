// Package query is the read-path serving engine: it answers vector
// lookups, nearest-neighbor queries, and cross-snapshot neighbor-overlap
// queries over trained embedding snapshots at interactive latency.
//
// The paper's framing is that what users observe downstream of an
// embedding retrain are *queries* whose answers drift: a word's vector
// moves, and with it the word's nearest neighbors (Wendlandt et al.'s
// nearest-neighbor overlap is exactly this drift, and the k-NN measure in
// internal/core uses it as the downstream-instability proxy). This
// package makes those observations servable:
//
//   - Each snapshot (one Ref: algorithm, corpus year, dimension, seed,
//     precision) is resolved through a Source — in production the artifact
//     store, so a warm store serves queries without retraining — and held
//     query-ready in a byte-budgeted LRU, plus a word → row index. The
//     snapshot load picks the resident representation once, from the
//     artifact's precision, and hands the engine three functions over it:
//     the raw row, the query row a block gathers, and a scorer of gathered
//     query blocks. Full-precision snapshots keep rows L2-normalized once
//     (cosine becomes a dot product) and score them with the float64
//     kernel. Quantized snapshots stay compact: b<=8-bit artifacts keep
//     their packed codes resident (8-16x more snapshots per byte of
//     budget) and score through the decode-free LUT kernel; float32-exact
//     artifacts keep float32 rows and score through the widening float32
//     kernel. Compact scorers take raw-row dot products and scale them by
//     precomputed inverse norms, an order fixed so answers are bitwise
//     identical to dequantizing the artifact and executing the same query
//     in float64 — for every worker count and batch shape (see the golden
//     tests in precision_test.go).
//   - Nearest-neighbor queries run through the blocked MulABT kernel and
//     the bounded-heap top-k selector from internal/core. Each request is
//     scored as one query block the moment it arrives (a multi-word
//     request as one block per blockSize words). Because every similarity
//     is an independent single-accumulator dot product, each query's
//     answer is bitwise identical whatever block it ran in, for any
//     worker count.
//   - NeighborDelta answers the paper's instability question directly:
//     the overlap between a word's top-k neighbors in two snapshots. It
//     resolves both snapshots before scoring either, loading a cold pair
//     side by side.
package query

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"anchor/internal/compress"
	"anchor/internal/core"
	"anchor/internal/embedding"
	"anchor/internal/faults"
	"anchor/internal/floats"
	"anchor/internal/matrix"
	"anchor/internal/parallel"
)

// siteLoad is the fault-injection site on the snapshot load path (see
// internal/faults): inert in production, armed by seeded plans in chaos
// tests to exercise the retry loop and latency handling.
var siteLoad = faults.Register("query/load")

// Ref identifies one queryable embedding snapshot by provenance.
type Ref struct {
	// Algo is the training algorithm name ("cbow", "glove", ...).
	Algo string
	// Year selects the corpus snapshot (2017 or 2018).
	Year int
	// Dim is the embedding dimension.
	Dim int
	// Seed is the training seed.
	Seed int64
	// Bits is the artifact precision in bits per entry; 0 (or 32) means
	// full precision. Quantized refs resolve to quantized artifacts,
	// which the engine keeps resident in compact form.
	Bits int
}

// String renders the ref as a stable identifier. Full-precision refs keep
// the historical four-part form.
func (r Ref) String() string {
	if r.Bits != 0 && r.Bits != 32 {
		return fmt.Sprintf("%s-wiki%d-d%d-s%d-b%d", r.Algo, r.Year%100, r.Dim, r.Seed, r.Bits)
	}
	return fmt.Sprintf("%s-wiki%d-d%d-s%d", r.Algo, r.Year%100, r.Dim, r.Seed)
}

// Source resolves a Ref to its embedding. The production source is the
// service's artifact store (train on miss, cached thereafter); tests use
// in-memory fixtures. The returned embedding is treated as read-only.
type Source func(ctx context.Context, ref Ref) (*embedding.Embedding, error)

// UnknownWordError reports a query for a word outside a snapshot's
// vocabulary. The serve layer maps it to HTTP 404.
type UnknownWordError struct {
	Word string
	Ref  Ref
}

// Error implements error.
func (e *UnknownWordError) Error() string {
	return fmt.Sprintf("query: word %q not in vocabulary of %s", e.Word, e.Ref)
}

// Neighbor is one entry of a nearest-neighbor answer.
type Neighbor struct {
	// Word is the neighbor's surface form ("" when the snapshot has no
	// vocabulary strings).
	Word string `json:"word"`
	// ID is the neighbor's vocabulary row id.
	ID int `json:"id"`
	// Score is the cosine similarity to the query word.
	Score float64 `json:"score"`
}

// Stats counts engine traffic. Counters are cumulative and safe to read
// concurrently. The JSON keys are the ones /v1/healthz reports under
// "query".
type Stats struct {
	// SnapshotHits counts queries served from an already-resident
	// query-ready snapshot.
	SnapshotHits int64 `json:"snapshot_hits"`
	// SnapshotLoads counts snapshots pulled through the Source and
	// normalized.
	SnapshotLoads int64 `json:"snapshot_loads"`
	// Evictions counts snapshots dropped by the byte budget.
	Evictions int64 `json:"evictions"`
	// Batches counts query blocks scored: one per request, or one per
	// blockSize words of a longer multi-word request.
	Batches int64 `json:"batches"`
	// BatchedQueries counts neighbor queries answered; BatchedQueries /
	// Batches is the mean block size.
	BatchedQueries int64 `json:"batched_queries"`
	// Retries counts snapshot-load attempts beyond each load's first try
	// (see loadSource). A nonzero value means the source failed
	// transiently and the engine recovered without surfacing an error.
	Retries int64 `json:"retries"`
}

// Engine serves vector, neighbor, and neighbor-delta queries over
// embedding snapshots. It is safe for concurrent use; construct with New.
type Engine struct {
	src     Source
	budget  int64
	workers int

	mu     sync.Mutex
	items  map[Ref]*list.Element
	lru    *list.List // front = most recently used
	bytes  int64
	flight map[Ref]*snapFlight

	hits, loads, evictions, batches, batchedQueries, retries atomic.Int64
}

// Option configures New.
type Option func(*Engine)

// WithBudget bounds the total bytes of resident query-ready snapshots —
// each one's normalized matrix, pinned raw embedding, and word index —
// evicting the least recently used beyond it (<= 0 = unbounded). The
// most recently used snapshot is always kept, so a single snapshot
// larger than the budget still serves.
func WithBudget(bytes int64) Option {
	return func(e *Engine) { e.budget = bytes }
}

// WithWorkers bounds the goroutines used per query-block matrix product
// and snapshot normalization (<= 0 selects all CPUs). Answers are bitwise
// identical for every value.
func WithWorkers(n int) Option {
	return func(e *Engine) { e.workers = n }
}

// New returns an Engine drawing snapshots from src.
func New(src Source, opts ...Option) *Engine {
	e := &Engine{
		src:    src,
		budget: 256 << 20,
		items:  map[Ref]*list.Element{},
		lru:    list.New(),
		flight: map[Ref]*snapFlight{},
	}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// Stats returns a snapshot of the traffic counters.
func (e *Engine) Stats() Stats {
	return Stats{
		SnapshotHits:   e.hits.Load(),
		SnapshotLoads:  e.loads.Load(),
		Evictions:      e.evictions.Load(),
		Batches:        e.batches.Load(),
		BatchedQueries: e.batchedQueries.Load(),
		Retries:        e.retries.Load(),
	}
}

// SnapshotInfo describes one resident query-ready snapshot for health
// and capacity reporting.
type SnapshotInfo struct {
	// Ref is the snapshot's stable identifier.
	Ref string `json:"ref"`
	// Mode is the resident representation: "float64", "float32", or
	// "codes" (packed b-bit quantized rows).
	Mode string `json:"mode"`
	// Bits is the artifact precision (32 = full).
	Bits int `json:"bits"`
	// Rows and Dim are the snapshot's shape.
	Rows int `json:"rows"`
	Dim  int `json:"dim"`
	// Bytes is the snapshot's resident footprint charged against the
	// engine budget (rows, inverse norms, decode table, word index).
	Bytes int64 `json:"bytes"`
}

// Resident lists the resident snapshots, most recently used first, with
// their representation and byte footprint — the per-snapshot view behind
// /v1/healthz.
func (e *Engine) Resident() []SnapshotInfo {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]SnapshotInfo, 0, e.lru.Len())
	for el := e.lru.Front(); el != nil; el = el.Next() {
		s := el.Value.(*snapshot)
		bits := s.ref.Bits
		if bits == 0 {
			bits = 32
		}
		out = append(out, SnapshotInfo{
			Ref:   s.ref.String(),
			Mode:  s.mode,
			Bits:  bits,
			Rows:  s.rows,
			Dim:   s.dim,
			Bytes: s.bytes,
		})
	}
	return out
}

// snapshot is one query-ready resident embedding plus its vocabulary
// index. load picks the resident representation (named by mode) and sets
// the three functions the rest of the engine reads it through, so
// nothing else asks which representation a snapshot holds.
type snapshot struct {
	ref  Ref
	mode string

	// row writes raw (unnormalized) row i into dst: the vector Vector
	// returns.
	row func(i int, dst []float64)
	// query writes the row a query block gathers for query word i.
	query func(i int, dst []float64)
	// score fills sims with the cosine similarities of the gathered
	// query block qb, whose row r is query word ids[r], against every row.
	score func(sims, qb *matrix.Dense, ids []int)

	rows, dim int
	words     []string
	index     map[string]int
	bytes     int64
}

type snapFlight struct {
	done chan struct{}
	snap *snapshot
	err  error
}

// snapshot returns the query-ready snapshot for ref, loading and
// normalizing it on a miss. Concurrent misses share one load.
func (e *Engine) snapshot(ctx context.Context, ref Ref) (*snapshot, error) {
	for {
		e.mu.Lock()
		if el, ok := e.items[ref]; ok {
			e.lru.MoveToFront(el)
			e.mu.Unlock()
			e.hits.Add(1)
			return el.Value.(*snapshot), nil
		}
		if fl, ok := e.flight[ref]; ok {
			e.mu.Unlock()
			select {
			case <-fl.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if fl.err != nil && (errors.Is(fl.err, context.Canceled) || errors.Is(fl.err, context.DeadlineExceeded)) {
				// The originating client hung up mid-load; its cancellation
				// is not ours. Retry with our own context.
				continue
			}
			return fl.snap, fl.err
		}
		fl := &snapFlight{done: make(chan struct{})}
		e.flight[ref] = fl
		e.mu.Unlock()

		fl.snap, fl.err = e.load(ctx, ref)
		e.mu.Lock()
		delete(e.flight, ref)
		if fl.err == nil {
			e.insertLocked(fl.snap)
		}
		e.mu.Unlock()
		close(fl.done)
		return fl.snap, fl.err
	}
}

// load pulls ref through the source and builds the query-ready form. The
// resident representation is a pure function of the artifact: b<=8-bit
// quantized artifacts (values on their (Clip, Precision) level grid)
// become packed codes, other float32-exact reduced-precision artifacts
// become float32 rows, everything else stays on the full float64 path.
// It is the only code that reads the artifact's precision.
func (e *Engine) load(ctx context.Context, ref Ref) (*snapshot, error) {
	emb, err := e.loadSource(ctx, ref)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e.loads.Add(1)
	s := &snapshot{
		ref:   ref,
		rows:  emb.Rows(),
		dim:   emb.Dim(),
		words: emb.Words,
	}
	workers, b := e.workers, emb.Meta.Precision
	var codes *matrix.Codes
	if lv := compress.Grid(emb.Meta); lv != nil {
		// An artifact with a value off its grid has no code form (nil).
		codes, _ = matrix.NewCodesFromDense(emb.Vectors, lv, b)
	}
	// Budget accounting covers everything the snapshot pins. Compact
	// modes: the narrow rows, the inverse norms, and (for codes) the
	// decode table. Full precision: the normalized matrix plus the raw
	// embedding (held for vector lookups even after the artifact store
	// evicts it). Every mode adds the word index below.
	switch {
	case codes != nil:
		s.mode = "codes"
		s.bytes = int64(len(codes.Data)) + int64(s.rows)*8 + int64(len(codes.Levels))*8
		s.compact(codes.DequantizeRow, workers, func(sims, qb *matrix.Dense) {
			matrix.MulABTIntoLUT(sims, qb, codes, workers)
		})
	case b >= 1 && b < 32 && matrix.Float32Exact(emb.Vectors.Data):
		raw32 := matrix.NewDense32From(emb.Vectors)
		s.mode = "float32"
		s.bytes = int64(s.rows)*int64(s.dim)*4 + int64(s.rows)*8
		s.compact(raw32.WidenRow, workers, func(sims, qb *matrix.Dense) {
			matrix.MulABTInto32(sims, qb, raw32, workers)
		})
	default:
		norm := core.NormalizedRows(emb, workers)
		s.mode = "float64"
		s.bytes = 2 * int64(s.rows) * int64(s.dim) * 8
		s.row = func(i int, dst []float64) { copy(dst, emb.Vector(i)) }
		s.query = func(i int, dst []float64) { copy(dst, norm.Row(i)) }
		s.score = func(sims, qb *matrix.Dense, _ []int) { matrix.MulABTInto(sims, qb, norm, workers) }
	}
	if emb.Words != nil {
		s.index = make(map[string]int, len(emb.Words))
		for id, w := range emb.Words {
			s.index[w] = id
			s.bytes += int64(len(w)) + 48
		}
	}
	return s, nil
}

// compact sets the functions of a compact mode, which pins only raw rows
// (presented through row) and their inverse norms: a query gathers its
// raw row, and the scorer turns the kernel's raw dot products into
// cosines, sim = (dot·invQ)·invJ, in exactly that order for every element
// — the same two multiplications, in the same order, the dequantized
// float64 reference performs.
func (s *snapshot) compact(row func(i int, dst []float64), workers int, dots func(sims, qb *matrix.Dense)) {
	inv := invNorms(s.rows, s.dim, workers, row)
	s.row, s.query = row, row
	s.score = func(sims, qb *matrix.Dense, ids []int) {
		dots(sims, qb)
		for r, id := range ids {
			out := sims.Row(r)
			qinv := inv[id]
			for j := range out {
				out[j] = (out[j] * qinv) * inv[j]
			}
		}
	}
}

// Source loads are retried: up to loadAttempts tries per load, separated
// by exponentially growing waits (loadBackoff, then twice that). Retried
// loads resolve to the same content-keyed artifact, so a load that
// succeeds on retry is bitwise identical to one that succeeded first try.
const (
	loadAttempts = 3
	loadBackoff  = 2 * time.Millisecond
)

// loadSource pulls ref through the source under the bounded-backoff
// retry policy. Cancellation and deadline errors abort immediately — they
// belong to the caller, whose deadline is the outer bound, not to the
// source — and the wait between tries is cut short when the context
// expires.
func (e *Engine) loadSource(ctx context.Context, ref Ref) (*embedding.Embedding, error) {
	var err error
	for try := 0; try < loadAttempts; try++ {
		if try > 0 {
			e.retries.Add(1)
			if !sleepCtx(ctx, loadBackoff<<(try-1)) {
				return nil, ctx.Err()
			}
		}
		faults.Sleep(ctx, siteLoad)
		if ferr := faults.Error(siteLoad); ferr != nil {
			err = ferr
		} else {
			var emb *embedding.Embedding
			if emb, err = e.src(ctx, ref); err == nil {
				return emb, nil
			}
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, err
		}
	}
	return nil, fmt.Errorf("query: load %s failed after %d attempts: %w", ref, loadAttempts, err)
}

// sleepCtx waits for d or until ctx is done, reporting whether the full
// wait elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	//anchorlint:ignore seedrand retry backoff only delays a snapshot reload; the loaded artifact is content-keyed, so answers are bitwise identical with or without the wait
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// invNorms computes per-row inverse L2 norms (0 for zero rows) for a
// matrix presented row-by-row through fill. Rows are independent, so
// banding is bitwise invariant for every worker count; each norm is the
// same floats.Norm the dequantized float64 reference computes.
func invNorms(rows, cols, workers int, fill func(i int, dst []float64)) []float64 {
	inv := make([]float64, rows)
	bands := parallel.Ranges(rows, parallel.Workers(workers))
	parallel.Run(workers, len(bands), func(sh int) {
		row := make([]float64, cols)
		for i := bands[sh].Lo; i < bands[sh].Hi; i++ {
			fill(i, row)
			if n := floats.Norm(row); n != 0 {
				inv[i] = 1 / n
			}
		}
	}, nil)
	return inv
}

// insertLocked publishes a loaded snapshot and applies the byte budget.
// Caller holds e.mu.
func (e *Engine) insertLocked(s *snapshot) {
	if el, ok := e.items[s.ref]; ok {
		e.lru.MoveToFront(el)
		return
	}
	e.items[s.ref] = e.lru.PushFront(s)
	e.bytes += s.bytes
	if e.budget <= 0 {
		return
	}
	for e.bytes > e.budget && e.lru.Len() > 1 {
		back := e.lru.Back()
		old := back.Value.(*snapshot)
		e.lru.Remove(back)
		delete(e.items, old.ref)
		e.bytes -= old.bytes
		e.evictions.Add(1)
	}
}

// resolve maps a word to its row id in the snapshot.
func (s *snapshot) resolve(word string) (int, error) {
	if id, ok := s.index[word]; ok {
		return id, nil
	}
	return 0, &UnknownWordError{Word: word, Ref: s.ref}
}

// Vector returns the word's row id and a copy of its (unnormalized)
// embedding vector in the snapshot under ref. Compact snapshots
// reconstruct the row exactly: both are lossless representations of the
// artifact.
func (e *Engine) Vector(ctx context.Context, ref Ref, word string) (int, []float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}
	s, err := e.snapshot(ctx, ref)
	if err != nil {
		return 0, nil, err
	}
	id, err := s.resolve(word)
	if err != nil {
		return 0, nil, err
	}
	vec := make([]float64, s.dim)
	s.row(id, vec)
	return id, vec, nil
}

// blockSize is the most words one query block scores: a multi-word
// request is split into blocks of at most this many query rows, the k-NN
// engine's block size (internal/core), which bounds each similarity block
// at blockSize×|V| floats.
const blockSize = 128

// NeighborsBatch answers a multi-word neighbors request: one query block
// per blockSize words, one matrix product per block. It is the one path
// every neighbor query takes.
func (e *Engine) NeighborsBatch(ctx context.Context, ref Ref, words []string, k int) ([][]Neighbor, error) {
	if err := checkRequest(ctx, k); err != nil {
		return nil, err
	}
	s, err := e.snapshot(ctx, ref)
	if err != nil {
		return nil, err
	}
	return e.neighbors(ctx, s, words, k)
}

// checkRequest rejects a neighbor request before any snapshot is
// resolved: a nonpositive k, or a context that is already done.
func checkRequest(ctx context.Context, k int) error {
	if k < 1 {
		return fmt.Errorf("query: k must be positive, got %d", k)
	}
	return ctx.Err()
}

// neighbors answers a multi-word neighbors request against the resolved
// snapshot s, one query block per blockSize words.
func (e *Engine) neighbors(ctx context.Context, s *snapshot, words []string, k int) ([][]Neighbor, error) {
	var err error
	ids := make([]int, len(words))
	for i, w := range words {
		if ids[i], err = s.resolve(w); err != nil {
			return nil, err
		}
	}
	out := make([][]Neighbor, len(ids))
	for lo := 0; lo < len(ids); lo += blockSize {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		hi := min(lo+blockSize, len(ids))
		e.compute(s, ids[lo:hi], k, out[lo:hi])
	}
	return out, nil
}

// computeScratch pools the per-block query and similarity buffers.
var computeScratch = sync.Pool{New: func() any { return &batchScratch{} }}

type batchScratch struct {
	qb, sb []float64
	sel    core.TopKSelector
}

func (sc *batchScratch) blocks(q, d, n int) (qb, sb *matrix.Dense) {
	if cap(sc.qb) < q*d {
		sc.qb = make([]float64, q*d)
	}
	if cap(sc.sb) < q*n {
		sc.sb = make([]float64, q*n)
	}
	return matrix.NewDenseData(q, d, sc.qb[:q*d]), matrix.NewDenseData(q, n, sc.sb[:q*n])
}

// compute scores one block of neighbor queries (row ids) as a single
// query-block product against the snapshot's resident rows and writes
// each query's top-k into out: gather the query rows, score them, select
// the top k. Every similarity is an independent single-accumulator dot
// product (plus, in compact modes, a fixed-order scale by the two
// inverse norms), so each answer is bitwise independent of the block
// composition and the worker count — and, in compact modes, bitwise
// identical to dequantizing the artifact and executing the same query in
// float64.
func (e *Engine) compute(s *snapshot, ids []int, k int, out [][]Neighbor) {
	e.batches.Add(1)
	e.batchedQueries.Add(int64(len(ids)))
	sc := computeScratch.Get().(*batchScratch)
	defer computeScratch.Put(sc)
	qb, sb := sc.blocks(len(ids), s.dim, s.rows)
	for i, id := range ids {
		s.query(id, qb.Row(i))
	}
	s.score(sb, qb, ids)
	top := make([]int32, min(k, s.rows))
	for i, id := range ids {
		sims := sb.Row(i)
		idxs := sc.sel.Select(sims, id, k, top)
		ns := make([]Neighbor, len(idxs))
		for j, ix := range idxs {
			ns[j] = Neighbor{ID: int(ix), Score: sims[ix]}
			if s.words != nil {
				ns[j].Word = s.words[ix]
			}
		}
		out[i] = ns
	}
}

// Delta is one word's neighbor-overlap comparison between two snapshots —
// the paper's downstream-instability proxy (Wendlandt et al. 2018's
// nearest-neighbor overlap) as a query answer.
type Delta struct {
	// Word is the query word.
	Word string `json:"word"`
	// Overlap is |N_A(w) ∩ N_B(w)| / k in [0, 1]: 1 = the word's
	// neighborhood survived the retrain, 0 = completely replaced.
	Overlap float64 `json:"overlap"`
	// Shared counts the common neighbors.
	Shared int `json:"shared"`
	// A and B are the word's top-k neighbor lists in the two snapshots.
	A []Neighbor `json:"a"`
	B []Neighbor `json:"b"`
}

// NeighborDelta compares each word's top-k neighbor sets between the
// snapshots under refA and refB. Cosine neighbor sets are invariant under
// orthogonal alignment, so the comparison needs no Procrustes step: the
// overlap is a pure function of the two trained snapshots. Both snapshots
// are resolved before either is scored, a cold pair side by side (see
// snapshotPair).
func (e *Engine) NeighborDelta(ctx context.Context, refA, refB Ref, words []string, k int) ([]Delta, error) {
	if err := checkRequest(ctx, k); err != nil {
		return nil, err
	}
	sa, sb, err := e.snapshotPair(ctx, refA, refB)
	if err != nil {
		return nil, err
	}
	na, err := e.neighbors(ctx, sa, words, k)
	if err != nil {
		return nil, err
	}
	nb, err := e.neighbors(ctx, sb, words, k)
	if err != nil {
		return nil, err
	}
	out := make([]Delta, len(words))
	for i, w := range words {
		ia := make([]int32, len(na[i]))
		for j, nbr := range na[i] {
			ia[j] = int32(nbr.ID)
		}
		ib := make([]int32, len(nb[i]))
		for j, nbr := range nb[i] {
			ib[j] = int32(nbr.ID)
		}
		shared := core.Overlap(ia, ib)
		d := Delta{Word: w, Shared: shared, A: na[i], B: nb[i]}
		if denom := len(ia); denom > 0 {
			d.Overlap = float64(shared) / float64(denom)
		}
		out[i] = d
	}
	return out, nil
}

// snapshotPair resolves a delta's two snapshots with the counters and LRU
// order of resolving refA, then refB, in turn. When both are resident it
// takes the engine lock once and counts two hits. Otherwise refB resolves
// on one extra goroutine while refA resolves on the caller's, so a cold
// pair's two loads (in production, two trainings) run side by side. The
// goroutine is joined before snapshotPair returns; refA's error wins over
// refB's, and a successful pair ends with refB most recently used.
func (e *Engine) snapshotPair(ctx context.Context, refA, refB Ref) (*snapshot, *snapshot, error) {
	e.mu.Lock()
	elA, okA := e.items[refA]
	elB, okB := e.items[refB]
	if okA && okB {
		e.lru.MoveToFront(elA)
		e.lru.MoveToFront(elB)
		e.mu.Unlock()
		e.hits.Add(2)
		return elA.Value.(*snapshot), elB.Value.(*snapshot), nil
	}
	e.mu.Unlock()
	if refA == refB {
		// One snapshot: its second read is a hit on the first's load.
		a, err := e.snapshot(ctx, refA)
		if err != nil {
			return nil, nil, err
		}
		b, err := e.snapshot(ctx, refB)
		return a, b, err
	}
	// Declared here, not as results, so the warm path does not move them
	// to the heap for the goroutine.
	var (
		b    *snapshot
		errB error
		done = make(chan struct{})
	)
	go func() {
		defer close(done)
		b, errB = e.snapshot(ctx, refB)
	}()
	a, err := e.snapshot(ctx, refA)
	<-done
	if err != nil {
		return nil, nil, err
	}
	if errB != nil {
		return nil, nil, errB
	}
	// Whichever load finished last went to the front; put refB there, as
	// if it had loaded second. Under a budget too small for both, refA's
	// insertion may have evicted refB: reinserting it then evicts refA, as
	// loading in turn would, at the cost of one more eviction counted.
	e.mu.Lock()
	e.insertLocked(b)
	e.mu.Unlock()
	return a, b, nil
}
