package parallel

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

func TestRangesCoverAllItems(t *testing.T) {
	for _, tc := range []struct{ n, shards int }{
		{0, 4}, {1, 4}, {3, 4}, {4, 4}, {5, 4}, {17, 4}, {100, 16}, {16, 16},
	} {
		rs := Ranges(tc.n, tc.shards)
		if len(rs) != tc.shards {
			t.Fatalf("Ranges(%d,%d): %d ranges", tc.n, tc.shards, len(rs))
		}
		covered := 0
		prev := 0
		for _, r := range rs {
			if r.Lo != prev || r.Hi < r.Lo {
				t.Fatalf("Ranges(%d,%d): non-contiguous %+v", tc.n, tc.shards, rs)
			}
			covered += r.Len()
			prev = r.Hi
		}
		if covered != tc.n || prev != tc.n {
			t.Fatalf("Ranges(%d,%d): covered %d ending at %d", tc.n, tc.shards, covered, prev)
		}
	}
}

func TestRangesBalanced(t *testing.T) {
	rs := Ranges(103, 16)
	min, max := rs[0].Len(), rs[0].Len()
	for _, r := range rs {
		if r.Len() < min {
			min = r.Len()
		}
		if r.Len() > max {
			max = r.Len()
		}
	}
	if max-min > 1 {
		t.Fatalf("imbalanced ranges: min=%d max=%d", min, max)
	}
}

func TestShardSeedDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for shard := 0; shard < 32; shard++ {
		for round := 0; round < 32; round++ {
			s := ShardSeed(7, shard, round)
			if s < 0 {
				t.Fatalf("negative shard seed %d", s)
			}
			if seen[s] {
				t.Fatalf("duplicate seed for shard=%d round=%d", shard, round)
			}
			seen[s] = true
		}
	}
	if ShardSeed(1, 0, 0) == ShardSeed(2, 0, 0) {
		t.Fatal("base seed does not affect shard seed")
	}
}

func TestShardRNGDeterministic(t *testing.T) {
	a := ShardRNG(42, 3, 5)
	b := ShardRNG(42, 3, 5)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("ShardRNG not deterministic")
		}
	}
}

func TestRunReducesInOrderAfterAllWork(t *testing.T) {
	const shards = 16
	var mu sync.Mutex
	done := map[int]bool{}
	var reduced []int
	Run(4, shards, func(s int) {
		mu.Lock()
		done[s] = true
		mu.Unlock()
	}, func(s int) {
		if len(done) != shards {
			t.Errorf("reduce(%d) ran before all work finished", s)
		}
		reduced = append(reduced, s)
	})
	for i, s := range reduced {
		if i != s {
			t.Fatalf("reduction out of order: %v", reduced)
		}
	}
	if len(reduced) != shards {
		t.Fatalf("reduced %d shards, want %d", len(reduced), shards)
	}
}

// TestRunWorkerInvariant is the engine's core property on a miniature
// trainer: shard-local accumulation with an ordered merge must be bitwise
// identical across worker counts, including the sequential path.
func TestRunWorkerInvariant(t *testing.T) {
	train := func(workers int) []float64 {
		const shards = 8
		state := make([]float64, 32)
		reps := make([]*Replica, shards)
		for s := range reps {
			reps[s] = NewReplica(state, 4)
		}
		for round := 0; round < 5; round++ {
			Run(workers, shards, func(s int) {
				r := reps[s]
				r.Begin()
				rng := ShardRNG(9, s, round)
				for i := 0; i < 200; i++ {
					row := r.Row(rng.Intn(8))
					row[rng.Intn(4)] += rng.Float64() - 0.3
				}
			}, nil)
			Merge(workers, reps, false, nil)
		}
		return state
	}
	ref := train(1)
	for _, w := range []int{2, 3, 4, 8, 16} {
		got := train(w)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d differs from workers=1 at %d: %v vs %v", w, i, got[i], ref[i])
			}
		}
	}
}

func TestWorkersAndShardsDefaults(t *testing.T) {
	if Workers(0) < 1 || Workers(-1) < 1 {
		t.Fatal("Workers must resolve non-positive to at least 1")
	}
	if Workers(3) != 3 {
		t.Fatal("explicit worker count not honored")
	}
	if Shards(0) != DefaultShards || Shards(-2) != DefaultShards {
		t.Fatal("Shards must default to DefaultShards")
	}
	if Shards(5) != 5 {
		t.Fatal("explicit shard count not honored")
	}
}

func TestReplicaRowBeforeBeginFaultsInSharedData(t *testing.T) {
	shared := []float64{7, 8}
	r := NewReplica(shared, 1)
	if got := r.Row(1)[0]; got != 8 {
		t.Fatalf("pre-Begin Row returned %v, want the shared value 8", got)
	}
}

func TestMergeSumAddsDelta(t *testing.T) {
	shared := []float64{1, 2, 3, 4}
	r := NewReplica(shared, 2)
	r.Begin()
	row := r.Row(1)
	row[0] += 10
	Merge(1, []*Replica{r}, false, nil)
	want := []float64{1, 2, 13, 4}
	for i := range want {
		if shared[i] != want[i] {
			t.Fatalf("shared = %v, want %v", shared, want)
		}
	}
}

func TestMergeAverageScalesSharedRows(t *testing.T) {
	shared := []float64{0, 0}
	a := NewReplica(shared, 1)
	b := NewReplica(shared, 1)
	for _, r := range []*Replica{a, b} {
		r.Begin()
	}
	a.Row(0)[0] += 4 // row 0 touched by both shards: averaged
	b.Row(0)[0] += 2
	b.Row(1)[0] += 5 // row 1 touched by one shard: full strength
	Merge(1, []*Replica{a, b}, true, nil)
	if shared[0] != 3 || shared[1] != 5 {
		t.Fatalf("shared = %v, want [3 5]", shared)
	}
}

// sealReduce is the serial merge Merge replaced, kept as its reference:
// every shard first seals its touched rows into deltas against the frozen
// shared state (local -= shared), then the deltas are added back shard by
// shard in ascending order, each shard's rows in first-touch order (dirty
// lists them), scaled by one over the row's touch count when average is
// set; hook then runs on every touched row in row order.
func sealReduce(reps []*Replica, dirty [][]int, average bool, hook func(int)) {
	counts := make([]int, len(reps[0].stamp))
	for s, r := range reps {
		for _, i := range dirty[s] {
			counts[i]++
			lo := i * r.rowLen
			for k := 0; k < r.rowLen; k++ {
				r.local[lo+k] -= r.shared[lo+k]
			}
		}
	}
	for s, r := range reps {
		for _, i := range dirty[s] {
			lo := i * r.rowLen
			if average {
				scale := 1 / float64(counts[i])
				for k := 0; k < r.rowLen; k++ {
					r.shared[lo+k] += r.local[lo+k] * scale
				}
			} else {
				for k := 0; k < r.rowLen; k++ {
					r.shared[lo+k] += r.local[lo+k]
				}
			}
		}
	}
	for i, c := range counts {
		if c > 0 && hook != nil {
			hook(i)
		}
	}
}

// TestMergeMatchesSealReduce checks Merge, summing and averaging, bitwise
// against sealReduce on random rounds at several worker counts. Each round
// row 0 is touched by every shard with work, row 1 by shard 0 alone and
// row 2 by none; the other rows are drawn at random. The last shard's
// range is empty in odd rounds, so in even rounds every shard touches row
// 0. A hook that rescales long rows, as MC's re-projection does, must run
// exactly once per touched row and never on an untouched one.
func TestMergeMatchesSealReduce(t *testing.T) {
	const shards, rounds = 5, 3
	for _, rows := range []int{5, 23} {
		for _, rowLen := range []int{1, 3, 7} {
			for _, average := range []bool{false, true} {
				for _, workers := range []int{1, 2, 3, 8} {
					name := fmt.Sprintf("rows=%d/rowLen=%d/average=%v/workers=%d", rows, rowLen, average, workers)
					t.Run(name, func(t *testing.T) {
						checkMergeAgainstReference(t, rows, rowLen, shards, rounds, average, workers)
					})
				}
			}
		}
	}
}

func checkMergeAgainstReference(t *testing.T, rows, rowLen, shards, rounds int, average bool, workers int) {
	rng := rand.New(rand.NewSource(int64(rows*1000 + rowLen*10 + workers)))
	got := make([]float64, rows*rowLen)
	for i := range got {
		got[i] = rng.NormFloat64() * 100
	}
	want := append([]float64(nil), got...)
	gotReps, wantReps := make([]*Replica, shards), make([]*Replica, shards)
	for s := range gotReps {
		gotReps[s], wantReps[s] = NewReplica(got, rowLen), NewReplica(want, rowLen)
	}
	// clip rescales a row longer than 150 back to that length.
	clip := func(x []float64) {
		var ss float64
		for _, v := range x {
			ss += v * v
		}
		if n := math.Sqrt(ss); n > 150 {
			for k := range x {
				x[k] *= 150 / n
			}
		}
	}
	for round := 0; round < rounds; round++ {
		dirty := make([][]int, shards)
		for s := 0; s < shards; s++ {
			gotReps[s].Begin()
			wantReps[s].Begin()
			if s == shards-1 && round%2 == 1 {
				continue // an empty range: Begin, then no rows
			}
			touches := []int{0}
			if s == 0 {
				touches = append(touches, 1)
			}
			for n := rng.Intn(3 * rows); n > 0; n-- {
				touches = append(touches, 3+rng.Intn(rows-3))
			}
			for _, i := range touches {
				g, w := gotReps[s].Row(i), wantReps[s].Row(i)
				if !slices.Contains(dirty[s], i) {
					dirty[s] = append(dirty[s], i)
				}
				k, d := rng.Intn(rowLen), rng.NormFloat64()*3
				g[k] += d
				w[k] += d
			}
		}
		calls := make([]atomic.Int32, rows)
		Merge(workers, gotReps, average, func(i int) {
			calls[i].Add(1)
			clip(got[i*rowLen : (i+1)*rowLen])
		})
		sealReduce(wantReps, dirty, average, func(i int) {
			clip(want[i*rowLen : (i+1)*rowLen])
		})
		for i := range calls {
			touched := false
			for _, d := range dirty {
				touched = touched || slices.Contains(d, i)
			}
			if n := calls[i].Load(); touched && n != 1 || !touched && n != 0 {
				t.Fatalf("round %d: hook ran %d times on row %d (touched %v)", round, n, i, touched)
			}
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("round %d: element %d = %v, reference %v", round, i, got[i], want[i])
			}
		}
	}
}
