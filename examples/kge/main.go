// KGE demonstrates the paper's Section 6.1 extension: the
// stability-memory tradeoff also holds for knowledge graph embeddings.
// It trains TransE on a synthetic FB15K analogue and on a 95% subsample,
// then reports link prediction instability (unstable-rank@10) and triplet
// classification disagreement across dimensions and precisions.
//
//	go run ./examples/kge
package main

import (
	"fmt"

	"anchor"
	"anchor/internal/kge"
)

func main() {
	gcfg := kge.DefaultGraphConfig()
	gcfg.Entities = 200
	gcfg.TrainN, gcfg.ValidN, gcfg.TestN = 2000, 200, 200
	g := kge.GenerateGraph(gcfg)
	g95 := kge.Subsample(g, 0.95, 7)
	fmt.Printf("synthetic knowledge graph: %d entities, %d relations, %d train triplets\n",
		g.NumEntities, g.NumRelations, len(g.Train))

	fmt.Println("\ndim  bits  memory(bits/vec)  unstable-rank@10  classification disagreement")
	for _, dim := range []int{4, 8, 16, 32} {
		cfg := kge.DefaultTransEConfig(dim, 1)
		m95 := kge.TrainTransE(g95, cfg)
		mFull := kge.TrainTransE(g, cfg)
		for _, bits := range []int{1, 4, 32} {
			q95, qFull := kge.QuantizePair(m95, mFull, bits, 0)

			ur := kge.UnstableRankAt10(q95.TailRanks(g.Test), qFull.TailRanks(g.Test))

			val := kge.BuildClassificationSet(g, g.Valid, 1)
			test := kge.BuildClassificationSet(g, g.Test, 2)
			th := q95.TuneThresholds(g.NumRelations, val)
			di := anchor.PredictionDisagreementPct(q95.Classify(test, th), qFull.Classify(test, th))

			fmt.Printf("%3d  %4d  %16d  %15.1f%%  %26.1f%%\n", dim, bits, dim*bits, 100*ur, di)
		}
	}
	fmt.Println("\nas with word embeddings: more memory, more stable")
}
