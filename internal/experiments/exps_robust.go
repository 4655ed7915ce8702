package experiments

import (
	"context"

	"anchor/internal/core"
	"anchor/internal/tasks"
	"anchor/internal/tasks/ner"
	"anchor/internal/tasks/sentiment"
)

// Fig12 reproduces Appendix Figure 12: the stability-memory tradeoff for
// fastText subword embeddings on SST-2 and CoNLL-2003.
func Fig12(ctx context.Context, r *Runner) ([]*Table, error) {
	st, err := taskEval[*tasks.Sentiment](r, "sst2")
	if err != nil {
		return nil, err
	}
	conll, err := taskEval[*tasks.NER](r, "conll2003")
	if err != nil {
		return nil, err
	}
	sst, nerDS := st.Data, conll.Data

	t := &Table{
		ID: "fig12", Title: "fastText subword embeddings: instability vs memory",
		Columns: []string{"task", "dim", "prec", "memory(bits/word)", "%disagreement"},
	}
	seed := r.Cfg.Seeds[0]
	for _, dim := range r.Cfg.NERDims {
		for _, prec := range r.Cfg.NERPrecisions {
			q17, q18, err := r.QuantizedPair(ctx, "fasttext", dim, prec, seed)
			if err != nil {
				return nil, err
			}
			scfg := sentiment.DefaultLinearBOWConfig(seed)
			sm17 := sentiment.TrainLinearBOW(q17, sst, scfg)
			sm18 := sentiment.TrainLinearBOW(q18, sst, scfg)
			t.AddRow("sst2", dim, prec, dim*prec,
				core.PredictionDisagreementPct(sm17.Predict(sst.Test), sm18.Predict(sst.Test)))

			if err := ctx.Err(); err != nil {
				return nil, err
			}
			ncfg := ner.DefaultConfig(seed)
			nm17 := ner.Train(q17, nerDS, ncfg)
			nm18 := ner.Train(q18, nerDS, ncfg)
			t.AddRow("conll2003", dim, prec, dim*prec,
				core.PredictionDisagreementPct(nm17.EntityPredictions(nerDS.Test), nm18.EntityPredictions(nerDS.Test)))
		}
	}
	return []*Table{t}, nil
}

// Fig13 reproduces Appendix Figure 13: the tradeoff under more complex
// downstream models — a CNN for SST-2 and a BiLSTM-CRF for CoNLL-2003.
func Fig13(ctx context.Context, r *Runner) ([]*Table, error) {
	st, err := taskEval[*tasks.Sentiment](r, "sst2")
	if err != nil {
		return nil, err
	}
	conll, err := taskEval[*tasks.NER](r, "conll2003")
	if err != nil {
		return nil, err
	}
	sst, nerDS := st.Data, conll.Data
	seed := r.Cfg.Seeds[0]

	t := &Table{
		ID: "fig13", Title: "Complex downstream models: instability vs memory",
		Columns: []string{"model", "algo", "dim", "prec", "memory(bits/word)", "%disagreement"},
	}
	algo := r.Cfg.Algorithms[0]
	// The paper likewise trains this figure on a representative subset of
	// the grid (Appendix E.2: dims {25,100,800}, precisions {1,4,32});
	// the CNN dominates the cost, so the subset here is the two smaller
	// NER dimensions and the extreme precisions.
	dims := r.Cfg.NERDims
	if len(dims) > 2 {
		dims = dims[:2]
	}
	precs := r.Cfg.NERPrecisions
	if len(precs) > 2 {
		precs = []int{precs[0], precs[len(precs)-1]}
	}
	for _, dim := range dims {
		for _, prec := range precs {
			q17, q18, err := r.QuantizedPair(ctx, algo, dim, prec, seed)
			if err != nil {
				return nil, err
			}

			ccfg := sentiment.DefaultCNNConfig(seed)
			cm17 := sentiment.TrainCNN(q17, sst, ccfg)
			cm18 := sentiment.TrainCNN(q18, sst, ccfg)
			t.AddRow("cnn-sst2", algo, dim, prec, dim*prec,
				core.PredictionDisagreementPct(cm17.Predict(sst.Test), cm18.Predict(sst.Test)))

			if err := ctx.Err(); err != nil {
				return nil, err
			}
			ncfg := ner.DefaultConfig(seed)
			ncfg.UseCRF = true
			nm17 := ner.Train(q17, nerDS, ncfg)
			nm18 := ner.Train(q18, nerDS, ncfg)
			t.AddRow("bilstm-crf-conll", algo, dim, prec, dim*prec,
				core.PredictionDisagreementPct(nm17.EntityPredictions(nerDS.Test), nm18.EntityPredictions(nerDS.Test)))
		}
	}
	return []*Table{t}, nil
}

// Fig14 reproduces Appendix Figure 14: (a) instability when downstream
// model seeds are NOT matched between the two models, and (b) instability
// when the embeddings are fine-tuned during downstream training.
func Fig14(ctx context.Context, r *Runner) ([]*Table, error) {
	st, err := taskEval[*tasks.Sentiment](r, "sst2")
	if err != nil {
		return nil, err
	}
	sst := st.Data
	seed := r.Cfg.Seeds[0]
	algo := r.Cfg.Algorithms[0]

	t := &Table{
		ID: "fig14", Title: "Relaxed seeds (a) and fine-tuned embeddings (b), SST-2",
		Columns: []string{"setting", "algo", "dim", "prec", "%disagreement"},
	}
	for _, dim := range r.Cfg.NERDims {
		for _, prec := range r.Cfg.NERPrecisions {
			q17, q18, err := r.QuantizedPair(ctx, algo, dim, prec, seed)
			if err != nil {
				return nil, err
			}

			// (a) mismatched downstream seeds.
			m17 := sentiment.TrainLinearBOW(q17, sst, sentiment.DefaultLinearBOWConfig(seed))
			m18 := sentiment.TrainLinearBOW(q18, sst, sentiment.DefaultLinearBOWConfig(seed+100))
			t.AddRow("relaxed-seeds", algo, dim, prec,
				core.PredictionDisagreementPct(m17.Predict(sst.Test), m18.Predict(sst.Test)))

			// (b) fine-tuned embeddings (full precision during training,
			// memory measured before training, as in the paper).
			cfg := sentiment.DefaultLinearBOWConfig(seed)
			cfg.Epochs = 15
			f17 := sentiment.TrainLinearBOWFineTuned(q17, sst, cfg)
			f18 := sentiment.TrainLinearBOWFineTuned(q18, sst, cfg)
			t.AddRow("fine-tuned", algo, dim, prec,
				core.PredictionDisagreementPct(f17.Predict(sst.Test), f18.Predict(sst.Test)))
		}
	}
	return []*Table{t}, nil
}

// Fig15 reproduces Appendix Figure 15: the downstream learning rate's
// effect on instability at two dimensions.
func Fig15(ctx context.Context, r *Runner) ([]*Table, error) {
	st, err := taskEval[*tasks.Sentiment](r, "sst2")
	if err != nil {
		return nil, err
	}
	sst := st.Data
	seed := r.Cfg.Seeds[0]
	algo := r.Cfg.Algorithms[0]
	dims := []int{r.Cfg.midDim(), r.Cfg.maxDim()}

	t := &Table{
		ID: "fig15", Title: "Downstream learning rate vs instability (SST-2, full precision)",
		Columns: []string{"algo", "dim", "lr", "%disagreement", "wiki17 accuracy"},
	}
	for _, dim := range dims {
		e17, e18, err := r.Pair(ctx, algo, dim, seed)
		if err != nil {
			return nil, err
		}
		for _, lr := range []float64{1e-4, 1e-3, 1e-2, 1e-1} {
			cfg := sentiment.DefaultLinearBOWConfig(seed)
			cfg.LR = lr
			m17 := sentiment.TrainLinearBOW(e17, sst, cfg)
			m18 := sentiment.TrainLinearBOW(e18, sst, cfg)
			t.AddRow(algo, dim, lr,
				core.PredictionDisagreementPct(m17.Predict(sst.Test), m18.Predict(sst.Test)),
				m17.Accuracy(sst.Test))
		}
	}
	return []*Table{t}, nil
}

// Table13 reproduces Appendix Table 13: the instability contributed by
// each randomness source — downstream model initialization seed, sampling
// order seed, and the embedding training data — with everything else
// fixed.
func Table13(ctx context.Context, r *Runner) ([]*Table, error) {
	seed := r.Cfg.Seeds[0]
	dim := r.Cfg.maxDim()
	t := &Table{
		ID: "table13", Title: "Instability by randomness source (full-precision, largest dim)",
		Columns: []string{"source", "task", "algo", "%disagreement"},
	}
	for _, algo := range r.Cfg.Algorithms {
		e17, e18, err := r.Pair(ctx, algo, dim, seed)
		if err != nil {
			return nil, err
		}
		for _, task := range r.Cfg.SentimentTasks {
			st, err := taskEval[*tasks.Sentiment](r, task)
			if err != nil {
				return nil, err
			}
			ds := st.Data

			// Model initialization seed: same embedding, same order, new init.
			base := sentiment.DefaultLinearBOWConfig(seed)
			base.SampleSeed = 12345
			alt := base
			alt.Seed = seed + 500
			a := sentiment.TrainLinearBOW(e17, ds, base)
			b := sentiment.TrainLinearBOW(e17, ds, alt)
			t.AddRow("model-init-seed", task, algo,
				core.PredictionDisagreementPct(a.Predict(ds.Test), b.Predict(ds.Test)))

			// Sampling order seed: same embedding, same init, new order.
			orderAlt := base
			orderAlt.SampleSeed = 54321
			c := sentiment.TrainLinearBOW(e17, ds, orderAlt)
			t.AddRow("sampling-order-seed", task, algo,
				core.PredictionDisagreementPct(a.Predict(ds.Test), c.Predict(ds.Test)))

			// Embedding training data: Wiki'17 vs Wiki'18.
			d := sentiment.TrainLinearBOW(e18, ds, base)
			t.AddRow("embedding-data", task, algo,
				core.PredictionDisagreementPct(a.Predict(ds.Test), d.Predict(ds.Test)))
		}
	}
	return []*Table{t}, nil
}

// Prop1 reports the Proposition 1 verification: the eigenspace
// instability measure against the Monte-Carlo estimate of the expected
// linear regression disagreement under the anchor covariance.
func Prop1(ctx context.Context, r *Runner) ([]*Table, error) {
	algo := r.Cfg.Algorithms[0]
	seed := r.Cfg.Seeds[0]
	ids := r.TopWordIDs()
	e, et, err := r.Anchors(ctx, algo, seed)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID: "prop1", Title: "Proposition 1: closed form vs Monte-Carlo (linear regression)",
		Columns: []string{"dim pair", "alpha", "eigenspace instability", "monte-carlo"},
	}
	dims := r.Cfg.Dims
	x17, _, err := r.Pair(ctx, algo, dims[0], seed)
	if err != nil {
		return nil, err
	}
	_, x18, err := r.Pair(ctx, algo, dims[len(dims)-1], seed)
	if err != nil {
		return nil, err
	}
	x := x17.SubRows(ids)
	xt := x18.SubRows(ids)
	for _, alpha := range []float64{1, 3} {
		m := &core.EigenspaceInstability{E: e, ETilde: et, Alpha: alpha, Workers: r.Cfg.Workers}
		closed := m.Distance(x, xt)
		sqrtSigma := core.AnchorCovarianceSqrt(e, et, alpha)
		mc := core.ExpectedLinearDisagreement(x, xt, sqrtSigma, 500, 99)
		t.AddRow("min-dim vs max-dim", alpha, closed, mc)
	}
	return []*Table{t}, nil
}
