// Benchmark harness: one benchmark per table and figure in the paper.
// Each benchmark regenerates the corresponding artifact at BenchConfig
// scale and prints the resulting rows, so `go test -bench=.` both times
// the reproduction and emits the paper-shaped data series. All benchmarks
// share one cached runner: the first benchmark touching a grid pays its
// training cost; later ones reuse it (mirroring the paper's pipeline,
// where embeddings are trained once and reused across analyses).
//
// Micro-benchmarks for the core computational kernels (SVD, quantization,
// distance measures, embedding trainers) follow the artifact benchmarks.
package anchor_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"

	"anchor/internal/compress"
	"anchor/internal/cooc"
	"anchor/internal/core"
	"anchor/internal/corpus"
	"anchor/internal/embedding"
	"anchor/internal/embtrain"
	"anchor/internal/experiments"
	"anchor/internal/kge"
	"anchor/internal/matrix"
	"anchor/internal/tasks/ner"
	"anchor/internal/tasks/sentiment"
)

var (
	benchOnce   sync.Once
	benchRunner *experiments.Runner
	printedMu   sync.Mutex
	printed     = map[string]bool{}
)

func runner() *experiments.Runner {
	benchOnce.Do(func() {
		benchRunner = experiments.NewRunner(experiments.BenchConfig())
	})
	return benchRunner
}

// benchArtifact times the regeneration of one paper artifact and prints
// its tables once.
func benchArtifact(b *testing.B, id string) {
	b.Helper()
	r := runner()
	var tables []*experiments.Table
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		tables, err = experiments.Run(context.Background(), r, id)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	printedMu.Lock()
	defer printedMu.Unlock()
	if !printed[id] {
		printed[id] = true
		fmt.Printf("\n")
		for _, t := range tables {
			t.Render(os.Stdout)
		}
	}
}

// One benchmark per paper table/figure (see DESIGN.md's experiment index).

func BenchmarkFig1DimensionPrecision(b *testing.B)      { benchArtifact(b, "fig1") }
func BenchmarkFig2MemoryNER(b *testing.B)               { benchArtifact(b, "fig2") }
func BenchmarkRuleOfThumbFit(b *testing.B)              { benchArtifact(b, "rule") }
func BenchmarkTable1Spearman(b *testing.B)              { benchArtifact(b, "table1") }
func BenchmarkTable2SelectionError(b *testing.B)        { benchArtifact(b, "table2") }
func BenchmarkTable3OracleDistance(b *testing.B)        { benchArtifact(b, "table3") }
func BenchmarkFig3KGE(b *testing.B)                     { benchArtifact(b, "fig3") }
func BenchmarkFig4SentimentDims(b *testing.B)           { benchArtifact(b, "fig4") }
func BenchmarkFig5SentimentPrecisions(b *testing.B)     { benchArtifact(b, "fig5") }
func BenchmarkFig6SentimentMemory(b *testing.B)         { benchArtifact(b, "fig6") }
func BenchmarkFig7QualityTradeoffs(b *testing.B)        { benchArtifact(b, "fig7") }
func BenchmarkFig8QualityNER(b *testing.B)              { benchArtifact(b, "fig8") }
func BenchmarkFig9MeasureScatter(b *testing.B)          { benchArtifact(b, "fig9") }
func BenchmarkFig10KGEPerDatasetThreshold(b *testing.B) { benchArtifact(b, "fig10") }
func BenchmarkFig11BERT(b *testing.B)                   { benchArtifact(b, "fig11") }
func BenchmarkFig12FastText(b *testing.B)               { benchArtifact(b, "fig12") }
func BenchmarkFig13ComplexModels(b *testing.B)          { benchArtifact(b, "fig13") }
func BenchmarkFig14SeedsFinetune(b *testing.B)          { benchArtifact(b, "fig14") }
func BenchmarkFig15LearningRate(b *testing.B)           { benchArtifact(b, "fig15") }
func BenchmarkTable8AlphaK(b *testing.B)                { benchArtifact(b, "table8") }
func BenchmarkTable9MRMPQA(b *testing.B)                { benchArtifact(b, "table9") }
func BenchmarkTable10WorstCasePairwise(b *testing.B)    { benchArtifact(b, "table10") }
func BenchmarkTable11WorstCaseBudget(b *testing.B)      { benchArtifact(b, "table11") }
func BenchmarkTable13RandomnessSources(b *testing.B)    { benchArtifact(b, "table13") }
func BenchmarkProp1Verification(b *testing.B)           { benchArtifact(b, "prop1") }

// ---- micro-benchmarks for the computational kernels ----

func benchEmbeddings(n, d int) (*embedding.Embedding, *embedding.Embedding) {
	rng := rand.New(rand.NewSource(1))
	a := embedding.New(n, d)
	bb := embedding.New(n, d)
	for i := range a.Vectors.Data {
		a.Vectors.Data[i] = rng.NormFloat64()
		bb.Vectors.Data[i] = a.Vectors.Data[i] + 0.1*rng.NormFloat64()
	}
	return a, bb
}

func BenchmarkSVD300x64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := matrix.NewDenseRand(300, 64, 1, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matrix.ComputeSVD(m)
	}
}

func BenchmarkQuantize4Bit(b *testing.B) {
	e, _ := benchEmbeddings(1000, 64)
	clip := compress.OptimalClip(e.Vectors.Data, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compress.Quantize(e, 4, clip)
	}
}

func BenchmarkEigenspaceInstability(b *testing.B) {
	x, xt := benchEmbeddings(300, 32)
	e, et := benchEmbeddings(300, 64)
	m := core.NewEigenspaceInstability(e, et)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Distance(x, xt)
	}
}

func BenchmarkKNNMeasure(b *testing.B) {
	x, xt := benchEmbeddings(300, 32)
	m := &core.KNN{K: 5, Queries: 100, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Distance(x, xt)
	}
}

// BenchmarkKNNMeasure3000 runs the batched k-NN engine at a vocabulary
// size where its speedup over the seed implementation is visible; the
// pre-PR loop is timed by BenchmarkKNNMeasureReference3000 in
// internal/core. The measure value is identical for every worker count.
func BenchmarkKNNMeasure3000(b *testing.B) {
	x, xt := benchEmbeddings(3000, 64)
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			m := &core.KNN{K: 5, Queries: 1000, Seed: 1, Workers: w}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Distance(x, xt)
			}
		})
	}
}

// BenchmarkMulATB times the blocked parallel aᵀ·b kernel at measure-layer
// scale (Gram matrices of a 3000-word embedding). The product is bitwise
// identical for every worker count.
func BenchmarkMulATB(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := matrix.NewDenseRand(3000, 64, 1, rng)
	y := matrix.NewDenseRand(3000, 64, 1, rng)
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				matrix.MulATBWorkers(x, y, w)
			}
		})
	}
}

// BenchmarkMulABT times the blocked parallel a·bᵀ kernel on the batched
// k-NN engine's shape: a query block scored against a 3000-word
// vocabulary.
func BenchmarkMulABT(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	q := matrix.NewDenseRand(128, 64, 1, rng)
	n := matrix.NewDenseRand(3000, 64, 1, rng)
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				matrix.MulABTWorkers(q, n, w)
			}
		})
	}
}

// BenchmarkMulABTLUT times the packed-code LUT kernel on the read path's
// shape: one query row scored against an 800-row snapshot (the bench
// config's vocabulary) at the 256-bit serving budget's quantized cells,
// dim x bits 32x8, 64x4 and 128x2.
func BenchmarkMulABTLUT(b *testing.B) {
	const rows = 800
	for _, cell := range []struct{ dim, bits int }{{32, 8}, {64, 4}, {128, 2}} {
		b.Run(fmt.Sprintf("%dx%d", cell.dim, cell.bits), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			levels := make([]float64, 1<<cell.bits)
			for v := range levels {
				levels[v] = float64(2*v+1-len(levels)) / float64(len(levels))
			}
			codes := matrix.NewCodes(rows, cell.dim, cell.bits, levels)
			rng.Read(codes.Data)
			q := matrix.NewDenseRand(1, cell.dim, 1, rng)
			dst := matrix.NewDense(1, rows)
			b.ReportAllocs()
			for b.Loop() {
				matrix.MulABTIntoLUT(dst, q, codes, 1)
			}
		})
	}
}

// ---- downstream-training benchmarks ----
//
// Each trainer records on one arena tape reset per minibatch, through the
// fused ops; the equality tests in internal/tasks pin its weights to the
// unfused compositions kept there as oracles.

func benchSentimentSetup() (*embedding.Embedding, *sentiment.Dataset) {
	c := benchCorpus()
	emb := embtrain.NewMC().Train(c, 32, 1)
	ds := sentiment.Generate(c, corpus.TestConfig(), sentiment.SST2Params())
	return emb, ds
}

func BenchmarkTrainLinearBOW(b *testing.B) {
	emb, ds := benchSentimentSetup()
	cfg := sentiment.DefaultLinearBOWConfig(1)
	ds.TrainCounts() // built once per dataset, as in the grid
	b.ReportAllocs()
	for b.Loop() {
		sentiment.TrainLinearBOW(emb, ds, cfg)
	}
}

func BenchmarkNERTrain(b *testing.B) {
	c := benchCorpus()
	emb := embtrain.NewMC().Train(c, 16, 1)
	p := ner.CoNLLParams()
	p.TrainN, p.ValN, p.TestN = 120, 30, 60
	ds := ner.Generate(c, corpus.TestConfig(), p)
	cfg := ner.DefaultConfig(1)
	cfg.Epochs = 3
	b.ReportAllocs()
	for b.Loop() {
		ner.Train(emb, ds, cfg)
	}
}

// BenchmarkGridCell times one full uncached grid-cell evaluation (all
// distance measures plus two sentiment tasks × two downstream models) with
// embeddings, anchors, and datasets pre-warmed — the unit of work the
// dimension × precision × seed sweep repeats.
func BenchmarkGridCell(b *testing.B) {
	ctx := context.Background()
	r := experiments.NewRunner(experiments.SmallConfig())
	r.Cfg.Workers = 1
	tasks := []string{"sst2", "subj"}
	if _, _, err := r.Pair(ctx, "mc", 16, 1); err != nil {
		b.Fatal(err)
	}
	if _, _, err := r.Anchors(ctx, "mc", 1); err != nil {
		b.Fatal(err)
	}
	for _, task := range tasks {
		if _, err := r.TaskEvaluator(task); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.EvalCell(ctx, "mc", 16, 4, 1, tasks, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPIPLoss(b *testing.B) {
	x, xt := benchEmbeddings(300, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		(core.PIPLoss{}).Distance(x, xt)
	}
}

func BenchmarkSemanticDisplacement(b *testing.B) {
	x, xt := benchEmbeddings(300, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		(core.SemanticDisplacement{}).Distance(x, xt)
	}
}

func benchCorpus() *corpus.Corpus {
	cfg := corpus.TestConfig()
	return corpus.Generate(cfg, corpus.Wiki17)
}

// benchTrainWorkers runs one trainer benchmark per worker count. The
// embeddings are bitwise identical across the sub-benchmarks (the engine's
// determinism contract); only the wall clock should differ, so the
// workers=1 vs workers=4 ratio is the training speedup on multicore
// hardware.
func benchTrainWorkers(b *testing.B, mk func(workers int) embtrain.Trainer) {
	c := benchCorpus()
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			tr := mk(w)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Train(c, 16, 1)
			}
		})
	}
}

func BenchmarkTrainCBOW(b *testing.B) {
	benchTrainWorkers(b, func(w int) embtrain.Trainer {
		tr := embtrain.NewCBOW()
		tr.Epochs = 2
		tr.Workers = w
		return tr
	})
}

func BenchmarkTrainGloVe(b *testing.B) {
	benchTrainWorkers(b, func(w int) embtrain.Trainer {
		tr := embtrain.NewGloVe()
		tr.Epochs = 2
		tr.Workers = w
		return tr
	})
}

func BenchmarkTrainMC(b *testing.B) {
	benchTrainWorkers(b, func(w int) embtrain.Trainer {
		tr := embtrain.NewMC()
		tr.Epochs = 2
		tr.Workers = w
		return tr
	})
}

func BenchmarkTrainFastText(b *testing.B) {
	benchTrainWorkers(b, func(w int) embtrain.Trainer {
		tr := embtrain.NewFastText()
		tr.Epochs = 2
		tr.Workers = w
		return tr
	})
}

func BenchmarkCoocCount(b *testing.B) {
	c := benchCorpus()
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cooc.CountWorkers(c, 5, cooc.InverseDistance, w)
			}
		})
	}
}

func BenchmarkTransETraining(b *testing.B) {
	g := kge.GenerateGraph(kge.TestGraphConfig())
	cfg := kge.DefaultTransEConfig(16, 1)
	cfg.Epochs = 5
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kge.TrainTransE(g, cfg)
	}
}

func BenchmarkCorpusGeneration(b *testing.B) {
	cfg := corpus.TestConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		corpus.Generate(cfg, corpus.Wiki17)
	}
}
