package query

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"anchor/internal/compress"
	"anchor/internal/embedding"
	"anchor/internal/matrix"
	"anchor/internal/store"
)

// BenchmarkNeighborsServe measures the read path at the acceptance scale
// (|V| = 10k, d = 100):
//
//   - singleton-64 vs block-64: 64 neighbor queries per round, as 64
//     concurrent single-word Neighbors calls (one query block each) vs one
//     64-word NeighborsBatch (one shared MulABT block that streams the
//     10k x 100 snapshot matrix once instead of once per query).
//   - coldload-binary: decoding one artifact from disk in the store's
//     zero-copy binary format, the cost of a snapshot that misses memory.
func BenchmarkNeighborsServe(b *testing.B) {
	const n, d, queries = 10_000, 100, 64
	rng := rand.New(rand.NewSource(3))
	e := embedding.New(n, d)
	e.Vectors = matrix.NewDenseRand(n, d, 1, rng)
	e.Words = make([]string, n)
	for i := range e.Words {
		e.Words[i] = fmt.Sprintf("w%05d", i)
	}
	e.Meta = embedding.Meta{Algorithm: "bench", Corpus: "wiki17", Dim: d, Seed: 1, Precision: 32}
	src := func(ctx context.Context, ref Ref) (*embedding.Embedding, error) { return e, nil }
	ref := Ref{Algo: "bench", Year: 2017, Dim: d, Seed: 1}
	words := make([]string, queries)
	for i := range words {
		words[i] = e.Words[(i*151)%n]
	}

	b.Run("singleton-64", func(b *testing.B) {
		serveRounds(b, New(src), ref, words, singletonRound)
	})
	b.Run("block-64", func(b *testing.B) {
		serveRounds(b, New(src), ref, words, blockRound)
	})

	binPath := filepath.Join(b.TempDir(), "emb.bin")
	if err := store.SaveBinaryFile(binPath, e, store.Float64); err != nil {
		b.Fatal(err)
	}
	b.Run("coldload-binary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := store.LoadBinaryFile(binPath); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// serveRounds times b.N rounds of round, each answering one neighbor
// query per word, against an engine whose snapshot is already resident,
// and reports queries/s.
func serveRounds(b *testing.B, eng *Engine, ref Ref, words []string, round func(*testing.B, *Engine, Ref, []string)) {
	b.Helper()
	// Warm the snapshot so rounds measure query work, not the load.
	if _, err := eng.Neighbors(context.Background(), ref, words[0], 5); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round(b, eng, ref, words)
	}
	b.StopTimer()
	b.ReportMetric(float64(len(words))*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}

// singletonRound sends every word as its own concurrent Neighbors call.
func singletonRound(b *testing.B, eng *Engine, ref Ref, words []string) {
	var wg sync.WaitGroup
	for _, w := range words {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := eng.Neighbors(context.Background(), ref, w, 5); err != nil {
				b.Error(err)
			}
		}()
	}
	wg.Wait()
}

// blockRound sends all words as one NeighborsBatch request.
func blockRound(b *testing.B, eng *Engine, ref Ref, words []string) {
	if _, err := eng.NeighborsBatch(context.Background(), ref, words, 5); err != nil {
		b.Error(err)
	}
}

// BenchmarkNeighborsPrecision measures the precision-parametrized read
// path at the acceptance scale (|V| = 10k, d = 100): one 64-word
// NeighborsBatch per round, served from float64 rows, float32 rows
// (b=16), and packed codes through the LUT kernel (b=8, 4, 2, 1). Each
// sub-benchmark reports queries/s and bytes/query — the resident snapshot
// bytes every query streams — so the quantized rows' memory win is
// machine-readable next to the throughput numbers.
func BenchmarkNeighborsPrecision(b *testing.B) {
	const n, d, queries = 10_000, 100, 64
	rng := rand.New(rand.NewSource(3))
	e := embedding.New(n, d)
	e.Vectors = matrix.NewDenseRand(n, d, 1, rng)
	e.Words = make([]string, n)
	for i := range e.Words {
		e.Words[i] = fmt.Sprintf("w%05d", i)
	}
	e.Meta = embedding.Meta{Algorithm: "bench", Corpus: "wiki17", Dim: d, Seed: 1, Precision: 32}
	src := func(ctx context.Context, ref Ref) (*embedding.Embedding, error) {
		if ref.Bits == 0 || ref.Bits >= 32 {
			return e, nil
		}
		clip := compress.OptimalClipWorkers(e.Vectors.Data, ref.Bits, 0)
		return compress.QuantizeWorkers(e, ref.Bits, clip, 0), nil
	}
	words := make([]string, queries)
	for i := range words {
		words[i] = e.Words[(i*151)%n]
	}

	for _, bits := range []int{32, 16, 8, 4, 2, 1} {
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			ref := Ref{Algo: "bench", Year: 2017, Dim: d, Seed: 1}
			if bits < 32 {
				ref.Bits = bits
			}
			eng := New(src)
			serveRounds(b, eng, ref, words, blockRound)
			for _, in := range eng.Resident() {
				b.ReportMetric(float64(in.Bytes), "bytes/query")
			}
		})
	}
}
