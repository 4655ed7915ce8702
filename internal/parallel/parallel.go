// Package parallel implements the deterministic sharded execution engine
// behind the embedding trainers and the co-occurrence counter.
//
// The engine separates what parallel hardware is available (Workers) from
// how work is partitioned (Shards). Work is always split into a fixed,
// configuration-derived number of shards; each shard runs sequentially with
// its own deterministically seeded RNG against state frozen at the start of
// the round, and shard results are folded back in ascending shard order
// (shard 0 first, then shard 1, ...): by Run's reduce callback, or, for the
// trainers' replicated matrices, by Merge, row by row. Because no shard
// observes another shard's writes and the fold order is fixed, the result
// is bitwise identical for every worker count: Workers only controls how
// many shards (or merge bands) are in flight at once. Changing Shards
// changes the (still deterministic) result, which is why it defaults to a
// constant rather than the machine's CPU count.
package parallel

import (
	"math/rand"
	"runtime"
	"sync"
)

// DefaultShards is the fixed shard count used when a Shards knob is left
// zero. It is a constant — never derived from GOMAXPROCS — so that results
// do not depend on the machine the training ran on. Eight balances scaling
// headroom against the per-shard cost of replicating the hottest rows.
const DefaultShards = 8

// Workers resolves a worker-count knob: values <= 0 select all CPUs.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Shards resolves a shard-count knob: values <= 0 select DefaultShards.
func Shards(n int) int {
	if n <= 0 {
		return DefaultShards
	}
	return n
}

// Range is a half-open interval [Lo, Hi) of work-item indices.
type Range struct{ Lo, Hi int }

// Len returns the number of items in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// Ranges splits n items into shards contiguous near-equal ranges. The first
// n%shards ranges hold one extra item; ranges may be empty when n < shards.
// The partition depends only on (n, shards), never on scheduling.
func Ranges(n, shards int) []Range {
	rs := make([]Range, shards)
	base, rem := n/shards, n%shards
	lo := 0
	for s := range rs {
		hi := lo + base
		if s < rem {
			hi++
		}
		rs[s] = Range{Lo: lo, Hi: hi}
		lo = hi
	}
	return rs
}

// splitmix64 is the SplitMix64 finalizer, used to decorrelate shard seeds
// derived from small consecutive integers.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ShardSeed derives the RNG seed for one (shard, round) pair from a base
// seed. Neighboring shards and rounds receive uncorrelated streams, and the
// derivation is a pure function of its arguments, so per-shard randomness
// is identical no matter which worker executes the shard.
func ShardSeed(seed int64, shard, round int) int64 {
	h := splitmix64(uint64(seed))
	h = splitmix64(h ^ uint64(shard)<<1 ^ 0xa5a5a5a5a5a5a5a5)
	h = splitmix64(h ^ uint64(round)<<1 ^ 0x5a5a5a5a5a5a5a5a)
	return int64(h >> 1) // non-negative, full 63-bit range
}

// ShardRNG returns a rand.Rand seeded with ShardSeed(seed, shard, round).
func ShardRNG(seed int64, shard, round int) *rand.Rand {
	return rand.New(rand.NewSource(ShardSeed(seed, shard, round)))
}

// Run executes work(s) for every shard s in [0, shards) on up to workers
// goroutines, waits for all shards to finish, and then calls reduce(s) for
// each shard in ascending order (reduce may be nil). work must not mutate
// state shared with other shards — it should read the pre-round state and
// write only shard-private buffers; reduce folds those buffers back in.
// Under this contract the combined result is bitwise independent of the
// worker count and of goroutine scheduling.
func Run(workers, shards int, work func(shard int), reduce func(shard int)) {
	if shards <= 0 {
		return
	}
	w := Workers(workers)
	if w > shards {
		w = shards
	}
	if w <= 1 {
		for s := 0; s < shards; s++ {
			work(s)
		}
	} else {
		var wg sync.WaitGroup
		next := make(chan int)
		for i := 0; i < w; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for s := range next {
					work(s)
				}
			}()
		}
		for s := 0; s < shards; s++ {
			next <- s
		}
		close(next)
		wg.Wait()
	}
	if reduce != nil {
		for s := 0; s < shards; s++ {
			reduce(s)
		}
	}
}

// Replica is one shard's copy-on-write view of a shared row-major matrix.
// During a round the shard reads and writes rows through Row, which copies
// a row from the shared state on first touch and stamps it with the round;
// Merge then finds the touched rows from those stamps and folds each one's
// delta against its round-start value back in. Copying only
// touched rows keeps frequent synchronization rounds affordable: per round
// the copy and merge cost is proportional to the rows the shards actually
// updated, plus one stamp check per row and shard.
//
// The contract mirrors Run's: Begin and Row run inside work, while the
// shared state is frozen, and Merge runs once every shard's work has
// returned.
type Replica struct {
	shared []float64
	rowLen int
	local  []float64 // shard-private working copy (valid where stamped)
	stamp  []int     // round id per row; row is live when stamp[i] == round
	round  int
}

// NewReplica returns a replica of the shared matrix whose rows are rowLen
// long. Vectors are matrices with rowLen 1.
func NewReplica(shared []float64, rowLen int) *Replica {
	rows := len(shared) / rowLen
	return &Replica{
		shared: shared,
		rowLen: rowLen,
		local:  make([]float64, len(shared)),
		stamp:  make([]int, rows),
		// Start at round 1 so the zero-valued stamps are never "live":
		// a Row call before the first Begin still faults in the shared
		// data instead of returning uninitialized zeros.
		round: 1,
	}
}

// Begin starts a new round: all rows revert to tracking the shared state.
func (r *Replica) Begin() { r.round++ }

// Row returns the shard-local working copy of row i, copying it from the
// shared state the first time the row is touched in this round.
func (r *Replica) Row(i int) []float64 {
	lo, hi := i*r.rowLen, (i+1)*r.rowLen
	if r.stamp[i] != r.round {
		r.stamp[i] = r.round
		copy(r.local[lo:hi], r.shared[lo:hi])
	}
	return r.local[lo:hi]
}

// Merge folds one round of shard replicas of the same shared matrix back
// into it, once every shard's work has returned. Rows are banded over up
// to workers goroutines. For each row some shard touched this round,
// Merge saves the row's round-start value, adds each touching shard's
// delta against it (working copy minus round-start value) in ascending
// shard order, and then calls hook(i) if hook is non-nil; hook may touch
// row i of the shared matrix only, and runs concurrently for rows in
// different bands.
//
// With average set, each delta is scaled by one over the number of shards
// that touched the row. Summing raw deltas is correct for rows only one
// shard saw, but the frequent (Zipf-head) rows are updated by every shard
// toward the same target, and summing those nearly colinear deltas
// overshoots by up to a factor of the shard count; per-row averaging
// removes exactly that overshoot while leaving single-shard rows at full
// strength.
//
// Every element sees the same operations in the same order whatever the
// banding, so the merged matrix is bitwise identical for every worker
// count.
func Merge(workers int, reps []*Replica, average bool, hook func(row int)) {
	if len(reps) == 0 {
		return
	}
	shared, n := reps[0].shared, reps[0].rowLen
	bands := Ranges(len(shared)/n, Workers(workers))
	Run(workers, len(bands), func(b int) {
		start := make([]float64, n)
		for i := bands[b].Lo; i < bands[b].Hi; i++ {
			touches := 0
			for _, r := range reps {
				if r.stamp[i] == r.round {
					touches++
				}
			}
			if touches == 0 {
				continue
			}
			row := shared[i*n : (i+1)*n]
			copy(start, row)
			scale := 1 / float64(touches)
			for _, r := range reps {
				if r.stamp[i] != r.round {
					continue
				}
				local := r.local[i*n : (i+1)*n]
				if average {
					for k, v := range start {
						row[k] += (local[k] - v) * scale
					}
				} else {
					for k, v := range start {
						row[k] += local[k] - v
					}
				}
			}
			if hook != nil {
				hook(i)
			}
		}
	}, nil)
}
