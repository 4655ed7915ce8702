// Package store is the persistent artifact store behind the service
// layer: a content-keyed cache for trained, aligned, and quantized
// embeddings. Artifacts are keyed by everything that determines their
// bits — (algorithm, corpus tag, dimension, seed, precision, scope) —
// so a hit is bitwise identical to a recompute and repeated queries or
// process restarts never retrain.
//
// The store has two tiers plus a dedup layer:
//
//   - an in-process LRU of decoded *embedding.Embedding values (capacity
//     in entries; 0 = unbounded, matching the pre-store runner maps)
//   - an optional disk tier: one binary artifact file per key under the
//     cache directory, written atomically (temp file + rename), read back
//     on memory misses and after restarts
//   - singleflight: concurrent requests for the same missing artifact
//     share one computation instead of training the same embedding twice
//
// # On-disk layout
//
// Each persisted artifact is one file,
//
//	<dir>/<algo>-<corpus>-d<dim>-s<seed>-b<bits>-<scope>.bin
//
// e.g. cache/cbow-wiki17-d64-s1-b32-9f8a3c21e5b70d44.bin, in the
// checksummed binary format of binary.go: one ReadFile and a header and
// checksum check, with the payload stored at the artifact's own precision
// (packed b-bit codes for quantized artifacts). The scope field is a hash
// of the corpus generation config, so caches for different corpora never
// collide; the format preserves every value's bits, so a disk hit is
// bitwise identical to the original computation.
//
// The disk tier is self-healing: an artifact that fails decode or checksum
// verification is quarantined (renamed to *.quarantined) and recomputed —
// damaged bytes are never served — and a file from another format version
// is a plain miss that the recompute overwrites. Open sweeps stale *.tmp
// debris left by writers that crashed before their atomic rename.
package store

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"anchor/internal/embedding"
	"anchor/internal/faults"
)

// Fault-injection sites on the disk tier (see internal/faults): inert in
// production, armed by seeded plans in chaos tests.
var (
	siteBinRead  = faults.Register("store/bin.read")
	siteBinBytes = faults.Register("store/bin.bytes")
	siteWrite    = faults.Register("store/write")
)

// Key identifies one embedding artifact by provenance.
type Key struct {
	// Algo is the training algorithm name ("cbow", "glove", ...).
	Algo string
	// Corpus tags the snapshot ("wiki17", "wiki18", or "wiki18a" for the
	// Procrustes-aligned Wiki'18 variant).
	Corpus string
	// Dim is the embedding dimension.
	Dim int
	// Seed is the training seed.
	Seed int64
	// Bits is the precision in bits per entry (32 = full precision).
	Bits int
	// Scope distinguishes otherwise-identical keys from different
	// settings — canonically a hash of the corpus generation config.
	Scope string
}

// ID returns the filename-safe canonical identity of the key.
func (k Key) ID() string {
	id := fmt.Sprintf("%s-%s-d%d-s%d-b%d-%s", sanitize(k.Algo), sanitize(k.Corpus), k.Dim, k.Seed, k.Bits, sanitize(k.Scope))
	return id
}

// sanitize maps a name onto the filename-safe alphabet so registry names
// chosen by plugins cannot escape the cache directory.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '.', r == '_':
			return r
		default:
			return '_'
		}
	}, s)
}

// Stats counts store traffic. Counters are cumulative over the store's
// lifetime and safe to read concurrently. The JSON keys are the ones
// /v1/healthz reports under "store".
type Stats struct {
	// MemHits counts artifacts served from the in-process LRU.
	MemHits int64 `json:"mem_hits"`
	// DiskHits counts artifacts decoded from the disk tier.
	DiskHits int64 `json:"disk_hits"`
	// Computes counts invocations of a compute callback — i.e. actual
	// (re)trainings. A warm store serves every request with Computes
	// unchanged.
	Computes int64 `json:"computes"`
	// Evictions counts LRU evictions.
	Evictions int64 `json:"evictions"`
	// PersistErrors counts failed best-effort disk writes (the artifact
	// is still served from memory).
	PersistErrors int64 `json:"persist_errors"`
	// Quarantines counts damaged disk artifacts moved aside (renamed to
	// *.quarantined) after failing decode or checksum verification. Each
	// quarantine is followed by a recompute, never by serving the damaged
	// bytes.
	Quarantines int64 `json:"quarantines"`
}

// Store is the two-tier artifact cache. The zero value is not usable;
// construct with Open or Memory.
type Store struct {
	dir string // "" = memory-only
	cap int    // LRU capacity in entries; 0 = unbounded

	mu     sync.Mutex
	items  map[string]*list.Element
	lru    *list.List // front = most recently used
	flight map[string]*flightCall

	memHits, diskHits, computes, evictions, persistErrs, quarantines atomic.Int64
}

type entry struct {
	id  string
	emb *embedding.Embedding
}

type flightCall struct {
	done chan struct{}
	a, b *embedding.Embedding
	err  error
}

// Open returns a store persisting to dir (created if missing) holding at
// most capacity decoded artifacts in memory (capacity <= 0 = unbounded).
// An empty dir yields a memory-only store.
func Open(dir string, capacity int) (*Store, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		sweepStaleTemps(dir)
	}
	if capacity < 0 {
		capacity = 0
	}
	return &Store{
		dir:    dir,
		cap:    capacity,
		items:  map[string]*list.Element{},
		lru:    list.New(),
		flight: map[string]*flightCall{},
	}, nil
}

// Memory returns an unbounded memory-only store — the drop-in replacement
// for the runner's pre-store caching maps.
func Memory() *Store {
	s, _ := Open("", 0)
	return s
}

// Stats returns a snapshot of the traffic counters.
func (s *Store) Stats() Stats {
	return Stats{
		MemHits:       s.memHits.Load(),
		DiskHits:      s.diskHits.Load(),
		Computes:      s.computes.Load(),
		Evictions:     s.evictions.Load(),
		PersistErrors: s.persistErrs.Load(),
		Quarantines:   s.quarantines.Load(),
	}
}

// sweepStaleTemps removes temp files left behind by writers that crashed
// between CreateTemp and the rename in saveDisk. Temps match
// <id>.tmp<digits>; finished artifacts always end in .bin, so the sweep
// can never touch a live artifact.
func sweepStaleTemps(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, ent := range entries {
		if ent.Type().IsRegular() && isStaleTemp(ent.Name()) {
			os.Remove(filepath.Join(dir, ent.Name()))
		}
	}
}

// isStaleTemp reports whether name matches saveDisk's CreateTemp
// pattern: anything ending in ".tmp" plus os.CreateTemp's numeric suffix.
func isStaleTemp(name string) bool {
	i := strings.LastIndex(name, ".tmp")
	if i < 0 {
		return false
	}
	for _, r := range name[i+len(".tmp"):] {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

// Get returns the artifact under k, computing (and caching) it on a miss;
// with a disk tier, a computed artifact is also written there. Concurrent
// Gets of the same key share one compute.
func (s *Store) Get(k Key, compute func() (*embedding.Embedding, error)) (*embedding.Embedding, error) {
	a, _, err := s.get(k, Key{}, false, func() (*embedding.Embedding, *embedding.Embedding, error) {
		e, err := compute()
		return e, nil, err
	})
	return a, err
}

// GetPair returns the two artifacts under (ka, kb), computing both with
// one callback when either is missing. This is the unit for aligned
// embedding pairs, whose second element is only defined relative to the
// first.
func (s *Store) GetPair(ka, kb Key, compute func() (*embedding.Embedding, *embedding.Embedding, error)) (*embedding.Embedding, *embedding.Embedding, error) {
	return s.get(ka, kb, true, compute)
}

func (s *Store) get(ka, kb Key, pair bool, compute func() (*embedding.Embedding, *embedding.Embedding, error)) (*embedding.Embedding, *embedding.Embedding, error) {
	flightKey := ka.ID()
	if pair {
		flightKey += "|" + kb.ID()
	}
	for {
		s.mu.Lock()
		a := s.lookupLocked(ka.ID())
		var b *embedding.Embedding
		if pair {
			b = s.lookupLocked(kb.ID())
		}
		if a != nil && (!pair || b != nil) {
			s.mu.Unlock()
			s.memHits.Add(1)
			return a, b, nil
		}
		if call, ok := s.flight[flightKey]; ok {
			// Someone else is already filling this slot; share its result
			// (and its error, if the computation failed).
			s.mu.Unlock()
			<-call.done
			if call.err != nil && (errors.Is(call.err, context.Canceled) || errors.Is(call.err, context.DeadlineExceeded)) {
				// The originator's client hung up mid-compute. Its
				// cancellation is not ours: retry with our own compute
				// (and our own context).
				continue
			}
			return call.a, call.b, call.err
		}
		call := &flightCall{done: make(chan struct{})}
		s.flight[flightKey] = call
		s.mu.Unlock()

		call.a, call.b, call.err = s.fill(ka, kb, pair, a, b, compute)
		s.mu.Lock()
		delete(s.flight, flightKey)
		s.mu.Unlock()
		close(call.done)
		return call.a, call.b, call.err
	}
}

// fill resolves the missing elements of the slot from disk or compute and
// publishes them to the memory tier. memA/memB are the elements already
// found in memory (nil if missing).
func (s *Store) fill(ka, kb Key, pair bool, memA, memB *embedding.Embedding, compute func() (*embedding.Embedding, *embedding.Embedding, error)) (*embedding.Embedding, *embedding.Embedding, error) {
	a := memA
	b := memB
	if a == nil {
		a = s.loadDisk(ka)
	}
	if pair && b == nil {
		b = s.loadDisk(kb)
	}
	computed := false
	if a == nil || (pair && b == nil) {
		var err error
		s.computes.Add(1)
		a, b, err = compute()
		if err != nil {
			return nil, nil, err
		}
		if a == nil || (pair && b == nil) {
			return nil, nil, fmt.Errorf("store: compute for %s returned nil artifact", ka.ID())
		}
		computed = true
	}
	if computed && s.dir != "" {
		// Persistence is best-effort: a full or read-only disk must not
		// discard a successfully computed artifact (the memory tier still
		// serves it); failures are only counted in Stats. An element the
		// compute fetched through its own slot (a nested Get) is already
		// resident under its key and was persisted there, so only what
		// the compute newly produced is written.
		if !s.resident(ka, a) {
			if err := s.saveDisk(ka, a); err != nil {
				s.persistErrs.Add(1)
			}
		}
		if pair && !s.resident(kb, b) {
			if err := s.saveDisk(kb, b); err != nil {
				s.persistErrs.Add(1)
			}
		}
	}
	s.mu.Lock()
	s.putLocked(ka.ID(), a)
	if pair {
		s.putLocked(kb.ID(), b)
	}
	s.mu.Unlock()
	return a, b, nil
}

// resident reports whether e is the memory tier's artifact under k.
func (s *Store) resident(k Key, e *embedding.Embedding) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[k.ID()]
	return ok && el.Value.(*entry).emb == e
}

// lookupLocked returns the memory-tier artifact for id, refreshing its
// LRU position. Caller holds s.mu.
func (s *Store) lookupLocked(id string) *embedding.Embedding {
	el, ok := s.items[id]
	if !ok {
		return nil
	}
	s.lru.MoveToFront(el)
	return el.Value.(*entry).emb
}

// putLocked inserts or refreshes an artifact in the memory tier, evicting
// the least recently used entries beyond capacity. Caller holds s.mu.
func (s *Store) putLocked(id string, e *embedding.Embedding) {
	if el, ok := s.items[id]; ok {
		el.Value.(*entry).emb = e
		s.lru.MoveToFront(el)
		return
	}
	s.items[id] = s.lru.PushFront(&entry{id: id, emb: e})
	if s.cap <= 0 {
		return
	}
	for s.lru.Len() > s.cap {
		back := s.lru.Back()
		s.lru.Remove(back)
		delete(s.items, back.Value.(*entry).id)
		s.evictions.Add(1)
	}
}

func (s *Store) binPath(k Key) string { return filepath.Join(s.dir, k.ID()+BinaryExt) }

// loadDisk returns the disk-tier artifact for k, or nil on a miss, which
// the caller recomputes. A damaged file (decode or checksum failure,
// errors.Is ErrCorrupt) is quarantined — renamed aside, counted in Stats —
// so its bytes are never read again. A missing file, a transient read
// error, or a file from another format version is a plain miss, and the
// recompute's write replaces it. Either way a disk hit is bitwise
// identical to the original computation or it is not served at all.
func (s *Store) loadDisk(k Key) *embedding.Embedding {
	if s.dir == "" {
		return nil
	}
	e, err := LoadBinaryFile(s.binPath(k))
	if err != nil {
		if errors.Is(err, ErrCorrupt) {
			s.quarantine(s.binPath(k))
		}
		return nil
	}
	s.diskHits.Add(1)
	return e
}

// quarantine moves a damaged artifact file aside as <path>.quarantined
// (deleting it when the rename fails) so the damaged bytes are never
// decoded again and a recompute can take its place.
func (s *Store) quarantine(path string) {
	if err := os.Rename(path, path+".quarantined"); err != nil {
		os.Remove(path)
	}
	s.quarantines.Add(1)
}

// saveDisk persists an artifact in the binary format, at the smallest
// lossless element kind, via a temporary file in the cache directory
// renamed into place, so concurrent readers and crashed writers never
// observe a torn file.
func (s *Store) saveDisk(k Key, e *embedding.Embedding) error {
	if err := faults.Error(siteWrite); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(s.dir, k.ID()+".tmp*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := WriteBinary(tmp, e, PickKind(e)); err != nil {
		tmp.Close()
		return fmt.Errorf("store: save %s: %w", k.ID(), err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.binPath(k)); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}
