package experiments

import (
	"context"

	"anchor/internal/bert"
	"anchor/internal/compress"
	"anchor/internal/core"
	"anchor/internal/matrix"
	"anchor/internal/tasks"
	"anchor/internal/tasks/sentiment"
)

// bertFeatures extracts mean-pooled frozen features for a dataset split.
func bertFeatures(m *bert.Model, examples []sentiment.Example) *matrix.Dense {
	out := matrix.NewDense(len(examples), m.Cfg.Hidden)
	for i, ex := range examples {
		copy(out.Row(i), m.SentenceFeature(ex.Tokens))
	}
	return out
}

// Fig11 reproduces Appendix Figure 11 (referenced from Section 6.2):
// downstream instability of frozen BERT features on sentiment analysis,
// (a) as the transformer output dimension varies and (b) as the features
// are quantized to different precisions.
func Fig11(ctx context.Context, r *Runner) ([]*Table, error) {
	c17, c18 := r.Corpora()
	st, err := taskEval[*tasks.Sentiment](r, r.Cfg.SentimentTasks[0])
	if err != nil {
		return nil, err
	}
	ds := st.Data
	trainY := make([]int, len(ds.Train))
	for i, ex := range ds.Train {
		trainY[i] = ex.Label
	}
	// The linear layer the paper trains on BERT outputs: Adam 0.01, batch
	// 32, 30 epochs, seeded like the embedding.
	trainAndPredict := func(train, test *matrix.Dense, seed int64) []int {
		cfg := sentiment.LinearBOWConfig{LR: 0.01, Epochs: 30, Batch: 32, Seed: seed}
		return sentiment.TrainClassifier(train, trainY, cfg).PredictFeatures(test)
	}

	dimT := &Table{
		ID: "fig11", Title: "BERT instability vs output dimension (" + ds.Name + ")",
		Columns: []string{"hidden", "seed-avg %disagreement", "wiki17 accuracy"},
	}
	precT := &Table{
		ID: "fig11", Title: "BERT instability vs feature precision (" + ds.Name + ")",
		Columns: []string{"hidden", "precision", "seed-avg %disagreement"},
	}

	for _, hidden := range r.Cfg.BERTHiddens {
		var diSum, accSum float64
		precSums := map[int]float64{}
		for _, seed := range r.Cfg.BERTSeeds {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			m17 := bert.Pretrain(c17, bert.DefaultConfig(hidden, seed))
			m18 := bert.Pretrain(c18, bert.DefaultConfig(hidden, seed))
			tr17, tr18 := bertFeatures(m17, ds.Train), bertFeatures(m18, ds.Train)
			te17, te18 := bertFeatures(m17, ds.Test), bertFeatures(m18, ds.Test)

			p17 := trainAndPredict(tr17, te17, seed)
			diSum += core.PredictionDisagreementPct(p17, trainAndPredict(tr18, te18, seed))
			accSum += sentiment.AccuracyOf(p17, ds.Test)

			// Precision sweep: quantize train+test features with a clip
			// computed on the Wiki'17 features, shared with Wiki'18.
			for _, prec := range r.Cfg.BERTPrecisions {
				q := func(m *matrix.Dense, clip float64) *matrix.Dense {
					out := m.Clone()
					compress.QuantizeValuesWorkers(out.Data, prec, clip, r.Cfg.Workers)
					return out
				}
				clip := 1.0
				if prec < 32 {
					clip = compress.OptimalClipWorkers(tr17.Data, prec, r.Cfg.Workers)
				}
				precSums[prec] += core.PredictionDisagreementPct(
					trainAndPredict(q(tr17, clip), q(te17, clip), seed), trainAndPredict(q(tr18, clip), q(te18, clip), seed))
			}
		}
		n := float64(len(r.Cfg.BERTSeeds))
		dimT.AddRow(hidden, diSum/n, accSum/n)
		for _, prec := range r.Cfg.BERTPrecisions {
			precT.AddRow(hidden, prec, precSums[prec]/n)
		}
	}
	return []*Table{dimT, precT}, nil
}
