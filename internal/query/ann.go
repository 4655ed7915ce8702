package query

import (
	"context"
	"fmt"

	"anchor/internal/ann"
	"anchor/internal/floats"
	"anchor/internal/matrix"
	"anchor/internal/parallel"
)

// Approximate search mode. Exact neighbor queries scan every resident
// row per query block; the opt-in ANN mode routes a query through the
// snapshot's IVF index (internal/ann) instead, scanning only the rows of
// the nprobe most query-similar cells. The exact path stays the golden
// reference oracle: every candidate the IVF path does score uses the
// same arithmetic, in the same order, as the exact kernels — a plain
// single-accumulator dot (plus, in compact modes, the same fixed-order
// inverse-norm scaling) — so at nprobe = NList the answer is bitwise
// identical to the exact path (pinned by TestANNFullProbeBitwiseExact),
// and at smaller nprobe every reported similarity is still exactly what
// the exact path would report for that candidate; only membership of the
// deep tail can differ.
//
// The index is derived data: built lazily per snapshot from its
// normalized rows (seeded by the snapshot's training seed, bitwise
// worker-count-invariant) and cached on the snapshot, optionally through
// an ANNSource that persists sidecars in the artifact store. ANN queries
// share no matrix product: each probes and scores on its own.

// Mode selects the search strategy for one neighbors request.
type Mode struct {
	// ANN routes the query through the snapshot's IVF index.
	ANN bool
	// NProbe is the number of index cells scanned (<= 0 selects
	// ann.DefaultNProbe; >= the index's cell count reproduces the exact
	// answer bitwise). Ignored unless ANN is set.
	NProbe int
}

// ANNSource resolves the IVF index for a snapshot, given its build
// configuration and a build callback that constructs it from the
// resident rows. The production source is store.GetANN — sidecars
// persist next to the embedding artifacts — and nil means build
// in-process with no persistence.
type ANNSource func(ctx context.Context, ref Ref, cfg ann.Config, rows, dim int, build func() (*ann.Index, error)) (*ann.Index, error)

// WithANNSource routes index builds through src (nil = build in-process,
// no persistence).
func WithANNSource(src ANNSource) Option {
	return func(e *Engine) { e.annSrc = src }
}

// annIndex returns the snapshot's IVF index, building it on first use.
// The build is serialized per snapshot; concurrent ANN queries wait for
// one build rather than racing their own. The index's byte footprint is
// charged against the engine budget once built.
func (e *Engine) annIndex(ctx context.Context, s *snapshot) (*ann.Index, error) {
	s.annMu.Lock()
	defer s.annMu.Unlock()
	if s.annIdx != nil {
		return s.annIdx, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The index identity is a pure function of the snapshot: seeded by the
	// snapshot's training seed with default geometry. Workers only bounds
	// build concurrency (bitwise invariant).
	cfg := ann.Config{Seed: s.ref.Seed, Workers: e.workers}
	build := func() (*ann.Index, error) {
		e.annBuilds.Add(1)
		return ann.Build(s.normalizedRows(e.workers), cfg), nil
	}
	var (
		ix  *ann.Index
		err error
	)
	if e.annSrc != nil {
		ix, err = e.annSrc(ctx, s.ref, cfg, s.rows, s.dim, build)
	} else {
		ix, err = build()
	}
	if err != nil {
		return nil, fmt.Errorf("query: ann index for %s: %w", s.ref, err)
	}
	s.annIdx = ix
	e.charge(s, ix.SizeBytes())
	return ix, nil
}

// normalizedRows returns the snapshot's rows in the index's input form:
// unit-normalized float64. The full-precision snapshot already holds
// them; compact snapshots materialize a transient copy (build-time only
// — the built index does not retain it).
func (s *snapshot) normalizedRows(workers int) *matrix.Dense {
	if s.mode == precFloat64 {
		return s.norm
	}
	m := matrix.NewDense(s.rows, s.dim)
	bands := parallel.Ranges(s.rows, parallel.Workers(workers))
	parallel.Run(workers, len(bands), func(sh int) {
		for i := bands[sh].Lo; i < bands[sh].Hi; i++ {
			row := m.Row(i)
			s.fillRaw(i, row)
			inv := s.inv[i]
			for j := range row {
				row[j] *= inv
			}
		}
	}, nil)
	return m
}

// fillRaw writes the snapshot's raw (unnormalized) row i into dst.
func (s *snapshot) fillRaw(i int, dst []float64) {
	switch s.mode {
	case precCodes:
		s.codes.DequantizeRow(i, dst)
	case precFloat32:
		s.raw32.WidenRow(i, dst)
	default:
		copy(dst, s.raw.Vector(i))
	}
}

// charge adds a derived allocation (the built index) to the snapshot's
// resident footprint and re-applies the byte budget. A snapshot evicted
// while its index was building is not charged — it is no longer
// resident, and its index goes with it.
func (e *Engine) charge(s *snapshot, delta int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.items[s.ref]; !ok {
		return
	}
	s.bytes += delta
	e.bytes += delta
	e.evictOverBudgetLocked()
}

// annCompute answers neighbor queries (row ids) through the IVF index,
// writing each query's top-k into out. Queries are independent — each
// probes and scores on its own — so they fan out across workers with
// results written to disjoint slots; answers are bitwise identical for
// every worker count.
func (e *Engine) annCompute(s *snapshot, ix *ann.Index, ids []int, k, nprobe int, out [][]Neighbor) {
	e.annQueries.Add(int64(len(ids)))
	n := s.rows
	parallel.Run(e.workers, len(ids), func(i int) {
		srch := ann.NewSearcher(ix)
		qprobe, sim := s.annSim(ids[i])
		top := srch.Search(qprobe, k, nprobe, ids[i], sim, make([]int32, min(k, n)))
		ns := make([]Neighbor, len(top))
		for j, id := range top {
			ns[j] = s.neighbor(id, sim(id))
		}
		out[i] = ns
	}, nil)
}

// annSim returns the query row used to rank the index's centroids plus
// the per-candidate similarity callback for query row id — the exact
// path's arithmetic, one candidate at a time:
//
//   - float64: a dot of two normalized rows, the same single-accumulator
//     ascending loop as every element of the blocked kernel;
//   - codes/float32: the raw-row dot the LUT/widening kernel computes
//     (dequantized or widened per element in ascending order), scaled by
//     (dot·invQ)·invJ in scaleSims's fixed order.
func (s *snapshot) annSim(id int) (qprobe []float64, sim func(int32) float64) {
	if s.mode == precFloat64 {
		q := s.norm.Row(id)
		return q, func(j int32) float64 {
			return floats.Dot(q, s.norm.Row(int(j)))
		}
	}
	qraw := make([]float64, s.dim)
	s.fillRaw(id, qraw)
	qinv := s.inv[id]
	qprobe = make([]float64, s.dim)
	for k, v := range qraw {
		qprobe[k] = v * qinv
	}
	crow := make([]float64, s.dim)
	return qprobe, func(j int32) float64 {
		s.fillRaw(int(j), crow)
		return (floats.Dot(qraw, crow) * qinv) * s.inv[j]
	}
}
