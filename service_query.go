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

// QueryRequest is the input of Query (vector lookups) and Neighbors: one
// snapshot and the words to look up in it. The CLI builds it and
// POST /v1/neighbors decodes into it, so its JSON tags are the request
// fields. Zero values select the defaults: year 2017, K from the service
// configuration, 32 bits (full precision) and seed 1. Dim 0 asks the
// serving budget to pick the (dim, bits) cell (see WithServingBudget);
// without a budget it is an error.
type QueryRequest struct {
	Algo  string   `json:"algo"`
	Words []string `json:"words"`
	Dim   int      `json:"dim"`
	// K is the neighborhood size; vector lookups ignore it.
	K int `json:"k"`
	// Year selects the corpus snapshot, 2017 or 2018.
	Year int `json:"year"`
	// Bits selects the served precision, 1..32. Snapshots at b <= 8
	// bits stay resident as packed codes, 9..31 as float32 rows; both
	// score bitwise identically to dequantizing in float64.
	Bits int   `json:"bits"`
	Seed int64 `json:"seed"`
}

// DeltaRequest is the input of NeighborDelta: a QueryRequest without
// Year, since a delta always compares the 2017 snapshot with the 2018
// one. Zero values select the same defaults.
type DeltaRequest struct {
	Algo  string   `json:"algo"`
	Words []string `json:"words"`
	Dim   int      `json:"dim"`
	K     int      `json:"k"`
	Bits  int      `json:"bits"`
	Seed  int64    `json:"seed"`
}

// resolve fills in req's defaults and validates it: the one place a read
// request's zero fields become values. In serving-budget mode a zero Dim
// takes the selected cell, and a zero Bits that cell's precision.
func (s *Service) resolve(ctx context.Context, req QueryRequest) (QueryRequest, error) {
	if req.Year == 0 {
		req.Year = 2017
	}
	if req.K == 0 {
		req.K = s.runner.Cfg.K
	}
	req.Seed = seedOrDefault(req.Seed)
	if err := errors.Join(ctx.Err(), s.checkAlgo(req.Algo)); err != nil {
		return req, err
	}
	if req.Year != 2017 && req.Year != 2018 {
		return req, invalidf("year must be 2017 or 2018, got %d", req.Year)
	}
	if req.K < 1 {
		return req, invalidf("k must be positive, got %d", req.K)
	}
	if len(req.Words) == 0 {
		return req, invalidf("query needs at least one word")
	}
	switch {
	case req.Dim == 0 && s.servingBudget > 0:
		choice, err := s.selectServing(ctx, req.Algo, req.Seed)
		if err != nil {
			return req, err
		}
		req.Dim = choice.Dim
		if req.Bits == 0 {
			req.Bits = choice.Bits
		}
	case req.Dim == 0:
		return req, invalidf("dimension must be positive, got 0 (set a serving budget to have it auto-selected)")
	}
	if err := validDim(req.Dim); err != nil {
		return req, err
	}
	req.Bits = bitsOrDefault(req.Bits)
	return req, validBits(req.Bits)
}

// ref names the snapshot a resolved request reads. The engine's Ref
// spells full precision as Bits 0.
func (req QueryRequest) ref() query.Ref {
	ref := query.Ref{Algo: req.Algo, Year: req.Year, Dim: req.Dim, Seed: req.Seed, Bits: req.Bits}
	if ref.Bits >= 32 {
		ref.Bits = 0
	}
	return ref
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

// Query looks up the embedding vectors of req.Words in one trained
// snapshot — the read path's GET: served from the query engine's resident
// snapshots, the artifact store, or a train on a cold miss.
func (s *Service) Query(ctx context.Context, req QueryRequest) (VectorsReport, error) {
	req, err := s.resolve(ctx, req)
	if err != nil {
		return VectorsReport{}, err
	}
	ref := req.ref()
	rep := VectorsReport{Algo: req.Algo, Year: req.Year, Dim: req.Dim, Bits: req.Bits, Seed: req.Seed,
		Vectors: make([]WordVector, len(req.Words))}
	for i, w := range req.Words {
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
// for any block shape and any worker count.
func (s *Service) Neighbors(ctx context.Context, req QueryRequest) (NeighborsReport, error) {
	req, err := s.resolve(ctx, req)
	if err != nil {
		return NeighborsReport{}, err
	}
	rep := NeighborsReport{Algo: req.Algo, Year: req.Year, Dim: req.Dim, Bits: req.Bits, Seed: req.Seed, K: req.K,
		Results: make([]WordNeighbors, len(req.Words))}
	ns, err := s.engine.NeighborsBatch(ctx, req.ref(), req.Words, req.K)
	if err != nil {
		return NeighborsReport{}, err
	}
	for i, w := range req.Words {
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
// alignment pass is needed.
func (s *Service) NeighborDelta(ctx context.Context, req DeltaRequest) (NeighborDeltaReport, error) {
	q, err := s.resolve(ctx, QueryRequest{Algo: req.Algo, Words: req.Words, Dim: req.Dim, K: req.K,
		Bits: req.Bits, Seed: req.Seed})
	if err != nil {
		return NeighborDeltaReport{}, err
	}
	refA := q.ref()
	refB := refA
	refB.Year = 2018
	s.note("neighbor-delta %s d=%d b=%d k=%d seed=%d (%d words)", q.Algo, q.Dim, q.Bits, q.K, q.Seed, len(q.Words))
	ds, err := s.engine.NeighborDelta(ctx, refA, refB, q.Words, q.K)
	if err != nil {
		return NeighborDeltaReport{}, err
	}
	rep := NeighborDeltaReport{Algo: q.Algo, Dim: q.Dim, Bits: q.Bits, Seed: q.Seed, K: q.K, Results: ds}
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
