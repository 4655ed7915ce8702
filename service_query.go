package anchor

import (
	"context"
	"errors"

	"anchor/internal/query"
)

// This file is the Service's read path: vector lookups, nearest-neighbor
// queries, and cross-snapshot neighbor-delta queries over trained
// snapshots, served by the query engine in internal/query. Embeddings come
// from the artifact store (trained at most once) and are held query-ready
// in a byte-budgeted LRU. Each neighbor request is scored as one query
// block the moment it arrives, with answers bitwise identical for every
// worker count.

// UnknownWordError reports a query for a word outside the snapshot's
// vocabulary. The serve layer maps it to HTTP 404.
type UnknownWordError = query.UnknownWordError

// Neighbor is one nearest-neighbor answer entry (word, row id, cosine
// similarity).
type Neighbor = query.Neighbor

// WordDelta is one word's neighbor-overlap comparison between two
// snapshots — the served form of the paper's downstream-instability
// proxy.
type WordDelta = query.Delta

// queryParams accumulates per-query functional options. dim and bits
// hold the resolved values (after defaults and, in serving-budget mode,
// auto-selection); bits is the precision as reported (32 = full).
type queryParams struct {
	year int
	k    int
	seed int64
	bits int
	dim  int
}

// QueryOption configures one Service query (Query, Neighbors,
// NeighborDelta).
type QueryOption func(*queryParams)

// QueryYear selects the corpus snapshot year, 2017 (default) or 2018.
// NeighborDelta ignores it: a delta always compares 2017 against 2018.
func QueryYear(year int) QueryOption {
	return func(p *queryParams) { p.year = year }
}

// QueryK sets the neighborhood size for Neighbors and NeighborDelta. The
// default is the service configuration's K (the paper uses 5). Vector
// queries ignore it.
func QueryK(k int) QueryOption {
	return func(p *queryParams) { p.k = k }
}

// QuerySeed selects the training seed of the queried snapshot (default:
// the service's default seed).
func QuerySeed(seed int64) QueryOption {
	return func(p *queryParams) { p.seed = seed }
}

// QueryPrecision selects the precision (bits per entry, 1..32) of the
// served snapshot. Snapshots at b <= 8 bits stay resident as packed
// codes and are scored through the LUT kernel, 9..31 as float32 rows —
// both bitwise identical to dequantizing and scoring in float64. The
// default is the service's default precision (32, full, unless
// WithPrecision says otherwise).
func QueryPrecision(bits int) QueryOption {
	return func(p *queryParams) { p.bits = bits }
}

// queryParams resolves options against the service defaults and validates
// the shared request surface.
func (s *Service) queryParams(ctx context.Context, algo string, dim int, words []string, opts []QueryOption) (queryParams, error) {
	p := queryParams{year: 2017, k: s.runner.Cfg.K, seed: s.defSeed}
	for _, opt := range opts {
		opt(&p)
	}
	if err := errors.Join(ctx.Err(), s.checkAlgo(algo)); err != nil {
		return p, err
	}
	if p.year != 2017 && p.year != 2018 {
		return p, invalidf("year must be 2017 or 2018, got %d", p.year)
	}
	if p.k < 1 {
		return p, invalidf("k must be positive, got %d", p.k)
	}
	if len(words) == 0 {
		return p, invalidf("query needs at least one word")
	}
	p.dim = dim
	switch {
	case dim == 0 && s.servingBudget > 0:
		// Serving-budget mode: the selection algorithm picks the cell.
		// An explicit QueryPrecision still wins over the selected bits.
		choice, err := s.selectServing(ctx, algo, p.seed)
		if err != nil {
			return p, err
		}
		p.dim = choice.Dim
		if p.bits == 0 {
			p.bits = choice.Bits
		}
	case dim == 0:
		return p, invalidf("dimension must be positive, got 0 (set a serving budget to have it auto-selected)")
	}
	if err := validDim(p.dim); err != nil {
		return p, err
	}
	p.bits = s.bits(p.bits)
	if err := validBits(p.bits); err != nil {
		return p, err
	}
	return p, nil
}

// refBits normalizes a reported precision to the query engine's Ref
// convention, where 0 means full precision.
func refBits(bits int) int {
	if bits >= 32 {
		return 0
	}
	return bits
}

// WordVector is one vector-lookup answer.
type WordVector struct {
	// Word is the queried surface form.
	Word string `json:"word"`
	// ID is the word's vocabulary row id.
	ID int `json:"id"`
	// Vector is the word's embedding row (a copy; callers may keep it).
	Vector []float64 `json:"vector"`
}

// VectorsReport answers one vector-lookup query.
type VectorsReport struct {
	Algo string `json:"algo"`
	Year int    `json:"year"`
	Dim  int    `json:"dim"`
	// Bits is the served precision (32 = full).
	Bits int   `json:"bits"`
	Seed int64 `json:"seed"`
	// Vectors holds one entry per queried word, in request order.
	Vectors []WordVector `json:"vectors"`
}

// Query looks up the embedding vectors of words in one trained snapshot —
// the read path's GET: served from the query engine's resident snapshots,
// the artifact store, or a train on a cold miss. Defaults: year 2017,
// seed the service default.
func (s *Service) Query(ctx context.Context, algo string, dim int, words []string, opts ...QueryOption) (VectorsReport, error) {
	p, err := s.queryParams(ctx, algo, dim, words, opts)
	if err != nil {
		return VectorsReport{}, err
	}
	ref := query.Ref{Algo: algo, Year: p.year, Dim: p.dim, Seed: p.seed, Bits: refBits(p.bits)}
	rep := VectorsReport{Algo: algo, Year: p.year, Dim: p.dim, Bits: p.bits, Seed: p.seed,
		Vectors: make([]WordVector, len(words))}
	for i, w := range words {
		id, vec, err := s.engine.Vector(ctx, ref, w)
		if err != nil {
			return VectorsReport{}, err
		}
		rep.Vectors[i] = WordVector{Word: w, ID: id, Vector: vec}
	}
	return rep, nil
}

// WordNeighbors is one word's nearest-neighbor answer.
type WordNeighbors struct {
	Word string `json:"word"`
	// Neighbors is ordered by cosine similarity descending, id-ascending
	// tie-breaks, excluding the word itself.
	Neighbors []Neighbor `json:"neighbors"`
}

// NeighborsReport answers one nearest-neighbor query.
type NeighborsReport struct {
	Algo string `json:"algo"`
	Year int    `json:"year"`
	Dim  int    `json:"dim"`
	// Bits is the served precision (32 = full).
	Bits int   `json:"bits"`
	Seed int64 `json:"seed"`
	K    int   `json:"k"`
	// Results holds one entry per queried word, in request order.
	Results []WordNeighbors `json:"results"`
}

// Neighbors returns each word's k nearest neighbors by cosine similarity
// in one trained snapshot. Each request is scored as one query block, one
// blocked matrix product for all its words. Answers are bitwise identical
// for any block shape and any worker count. Defaults: year 2017, k from
// the service configuration, seed the service default.
func (s *Service) Neighbors(ctx context.Context, algo string, dim int, words []string, opts ...QueryOption) (NeighborsReport, error) {
	p, err := s.queryParams(ctx, algo, dim, words, opts)
	if err != nil {
		return NeighborsReport{}, err
	}
	ref := query.Ref{Algo: algo, Year: p.year, Dim: p.dim, Seed: p.seed, Bits: refBits(p.bits)}
	rep := NeighborsReport{Algo: algo, Year: p.year, Dim: p.dim, Bits: p.bits, Seed: p.seed, K: p.k,
		Results: make([]WordNeighbors, len(words))}
	ns, err := s.engine.NeighborsBatch(ctx, ref, words, p.k)
	if err != nil {
		return NeighborsReport{}, err
	}
	for i, w := range words {
		rep.Results[i] = WordNeighbors{Word: w, Neighbors: ns[i]}
	}
	return rep, nil
}

// NeighborDeltaReport answers one neighbor-delta query: how much of each
// word's neighborhood survived the Wiki'17 → Wiki'18 retrain.
type NeighborDeltaReport struct {
	Algo string `json:"algo"`
	Dim  int    `json:"dim"`
	// Bits is the served precision (32 = full).
	Bits int   `json:"bits"`
	Seed int64 `json:"seed"`
	K    int   `json:"k"`
	// Results holds one delta per queried word, in request order.
	Results []WordDelta `json:"results"`
	// MeanOverlap averages the per-word overlaps: 1 = perfectly stable
	// neighborhoods, 0 = completely replaced.
	MeanOverlap float64 `json:"mean_overlap"`
}

// NeighborDelta compares each word's top-k neighbor sets between the
// Wiki'17 and Wiki'18 snapshots of one configuration — the paper's
// downstream-instability story as a single query: embeddings retrain on a
// slightly different corpus and the answers users observe (nearest
// neighbors) drift. Cosine neighborhoods are rotation-invariant, so no
// alignment pass is needed. Defaults: k from the service configuration,
// seed the service default.
func (s *Service) NeighborDelta(ctx context.Context, algo string, dim int, words []string, opts ...QueryOption) (NeighborDeltaReport, error) {
	p, err := s.queryParams(ctx, algo, dim, words, opts)
	if err != nil {
		return NeighborDeltaReport{}, err
	}
	refA := query.Ref{Algo: algo, Year: 2017, Dim: p.dim, Seed: p.seed, Bits: refBits(p.bits)}
	refB := query.Ref{Algo: algo, Year: 2018, Dim: p.dim, Seed: p.seed, Bits: refBits(p.bits)}
	s.note("neighbor-delta %s d=%d b=%d k=%d seed=%d (%d words)", algo, p.dim, p.bits, p.k, p.seed, len(words))
	ds, err := s.engine.NeighborDelta(ctx, refA, refB, words, p.k)
	if err != nil {
		return NeighborDeltaReport{}, err
	}
	rep := NeighborDeltaReport{Algo: algo, Dim: p.dim, Bits: p.bits, Seed: p.seed, K: p.k, Results: ds}
	for _, d := range ds {
		rep.MeanOverlap += d.Overlap
	}
	rep.MeanOverlap /= float64(len(ds))
	return rep, nil
}

// QueryStats reports query-engine traffic (resident snapshot hits, loads,
// evictions, and query blocks scored).
func (s *Service) QueryStats() query.Stats { return s.engine.Stats() }

// SnapshotInfo describes one query-ready resident snapshot: which
// artifact it serves, the precision mode it is resident in ("float64",
// "float32", or "codes"), and the bytes it pins in the query budget.
type SnapshotInfo = query.SnapshotInfo

// ResidentSnapshots lists the read path's resident snapshots, most
// recently used first.
func (s *Service) ResidentSnapshots() []SnapshotInfo { return s.engine.Resident() }
