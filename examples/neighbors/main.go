// Neighbors is the paper's instability story made observable: train the
// same embedding configuration on two corpus snapshots a year apart, then
// look at what a downstream user of the embeddings actually sees — each
// word's nearest neighbors — and how much of it the retrain silently
// replaced.
//
// It runs the read path end to end: a Service over a demo-scale
// configuration serves the Wiki'17 and Wiki'18 snapshots through the
// query engine, and one /v1/neighbors/delta-style query per word reports
// the top-k neighbor overlap (Wendlandt et al. 2018's nearest-neighbor
// stability, the proxy the paper's eigenspace measure predicts). The same
// query is then issued over HTTP against an in-process `anchor serve`
// handler to show both surfaces answer identically.
//
//	go run ./examples/neighbors
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"

	"anchor"
	"anchor/internal/serve"
)

func main() {
	ccfg := anchor.DefaultCorpusConfig()
	ccfg.VocabSize = 600 // keep the demo snappy
	ccfg.NumDocs = 300

	cfg := anchor.SmallExperimentConfig()
	cfg.Corpus = ccfg
	cfg.Dims = []int{32}

	svc, err := anchor.NewService(
		anchor.WithConfig(cfg),
		anchor.WithProgress(func(stage string) { fmt.Println("  ...", stage) }),
	)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	const algo, dim, k = "cbow", 32, 5

	// Pick a handful of frequent words to follow across the retrain.
	c17 := anchor.GenerateCorpus(ccfg, anchor.Wiki17)
	var words []string
	for _, id := range c17.TopWords(6) {
		words = append(words, c17.Vocab.Words[id])
	}

	fmt.Printf("%s dim=%d: top-%d neighbors on Wiki'17 vs Wiki'18\n\n", algo, dim, k)
	rep, err := svc.NeighborDelta(ctx, anchor.DeltaRequest{Algo: algo, Words: words, Dim: dim, K: k})
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range rep.Results {
		fmt.Printf("%-12s overlap %.2f\n  '17: %s\n  '18: %s\n",
			d.Word, d.Overlap, neighborList(d.A), neighborList(d.B))
	}
	fmt.Printf("\nmean overlap %.3f — the fraction of each word's neighborhood that\n"+
		"survived retraining on a corpus one year newer (1 = stable).\n", rep.MeanOverlap)

	// The same question over the HTTP surface: bit-identical answer.
	ts := httptest.NewServer(serve.New(svc, nil).Handler())
	defer ts.Close()
	body := fmt.Sprintf(`{"algo":%q,"words":[%q],"dim":%d,"k":%d}`, algo, words[0], dim, k)
	resp, err := http.Post(ts.URL+"/v1/neighbors/delta", "application/json", strings.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var httpRep anchor.NeighborDeltaReport
	if err := json.NewDecoder(resp.Body).Decode(&httpRep); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nPOST /v1/neighbors/delta for %q agrees: overlap %.2f (library %.2f)\n",
		words[0], httpRep.Results[0].Overlap, rep.Results[0].Overlap)
}

// neighborList renders a neighbor list as compact words.
func neighborList(ns []anchor.Neighbor) string {
	parts := make([]string, len(ns))
	for i, n := range ns {
		parts[i] = n.Word
	}
	return strings.Join(parts, " ")
}
