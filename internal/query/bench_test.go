package query

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"anchor/internal/compress"
	"anchor/internal/embedding"
	"anchor/internal/matrix"
	"anchor/internal/store"
)

// BenchmarkNeighborsServe measures the read path at the acceptance scale
// (|V| = 10k, d = 100):
//
//   - sequential-64 vs batched-64: 64 concurrent singleton /v1/neighbors-
//     style queries per round, with micro-batching off vs on. The batched
//     path coalesces the burst into shared MulABT blocks that stream the
//     10k x 100 snapshot matrix once per batch instead of once per query.
//   - coldload-gob vs coldload-binary: decoding one artifact from disk
//     through the gob tier vs the zero-copy binary format.
func BenchmarkNeighborsServe(b *testing.B) {
	const n, d, clients = 10_000, 100, 64
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
	words := make([]string, clients)
	for i := range words {
		words[i] = e.Words[(i*151)%n]
	}

	serve := func(b *testing.B, eng *Engine) {
		b.Helper()
		// Warm the snapshot so rounds measure query work, not the load.
		if _, err := eng.Neighbors(context.Background(), ref, words[0], 5); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					if _, err := eng.Neighbors(context.Background(), ref, words[c], 5); err != nil {
						b.Error(err)
					}
				}(c)
			}
			wg.Wait()
		}
		b.StopTimer()
		qps := float64(clients) * float64(b.N) / b.Elapsed().Seconds()
		b.ReportMetric(qps, "queries/s")
	}

	b.Run("sequential-64", func(b *testing.B) {
		serve(b, New(src, WithWindow(0)))
	})
	b.Run("batched-64", func(b *testing.B) {
		serve(b, New(src, WithWindow(time.Millisecond), WithMaxBatch(clients)))
	})

	dir := b.TempDir()
	gobPath := filepath.Join(dir, "emb.gob")
	binPath := filepath.Join(dir, "emb.bin")
	if err := e.SaveFile(gobPath); err != nil {
		b.Fatal(err)
	}
	if err := store.SaveBinaryFile(binPath, e, store.Float64); err != nil {
		b.Fatal(err)
	}
	b.Run("coldload-gob", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := embedding.LoadFile(gobPath); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("coldload-binary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := store.LoadBinaryFile(binPath); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("coldload-mmap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, close, err := store.MapBinaryFile(binPath)
			if err != nil {
				b.Fatal(err)
			}
			_ = m.Vector(0)[0] // touch one page
			if err := close(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkNeighborsPrecision measures the precision-parametrized read
// path at the acceptance scale (|V| = 10k, d = 100): the same batched
// 64-client workload served from float64 rows, float32 rows (b=16), and
// packed codes through the LUT kernel (b=8, 4, 2, 1). Each sub-benchmark
// reports queries/s and bytes/query — the resident snapshot bytes every
// query streams — so the quantized rows' memory win is machine-readable
// next to the throughput numbers.
func BenchmarkNeighborsPrecision(b *testing.B) {
	const n, d, clients = 10_000, 100, 64
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
		clip := compress.OptimalClip(e.Vectors.Data, ref.Bits)
		return compress.Quantize(e, ref.Bits, clip), nil
	}
	words := make([]string, clients)
	for i := range words {
		words[i] = e.Words[(i*151)%n]
	}

	for _, bits := range []int{32, 16, 8, 4, 2, 1} {
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			ref := Ref{Algo: "bench", Year: 2017, Dim: d, Seed: 1}
			if bits < 32 {
				ref.Bits = bits
			}
			eng := New(src, WithWindow(time.Millisecond), WithMaxBatch(clients))
			if _, err := eng.Neighbors(context.Background(), ref, words[0], 5); err != nil {
				b.Fatal(err)
			}
			var snapBytes int64
			for _, in := range eng.Resident() {
				snapBytes = in.Bytes
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for c := 0; c < clients; c++ {
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						if _, err := eng.Neighbors(context.Background(), ref, words[c], 5); err != nil {
							b.Error(err)
						}
					}(c)
				}
				wg.Wait()
			}
			b.StopTimer()
			qps := float64(clients) * float64(b.N) / b.Elapsed().Seconds()
			b.ReportMetric(qps, "queries/s")
			b.ReportMetric(float64(snapBytes), "bytes/query")
		})
	}
}
