package experiments

import (
	"context"
	"fmt"
	"sort"
)

// Experiment is a runnable reproduction of one paper artifact.
type Experiment struct {
	ID          string
	Description string
	Run         func(context.Context, *Runner) ([]*Table, error)
}

// Registry lists every reproducible table and figure, keyed by the
// paper's artifact id.
func Registry() map[string]Experiment {
	return map[string]Experiment{
		"fig1":    {"fig1", "Instability vs dimension and precision (SST-2, CoNLL-2003)", Fig1},
		"fig2":    {"fig2", "NER instability vs memory with linear-log fit", Fig2},
		"rule":    {"rule", "Stability-memory rule of thumb (Section 3.3)", RuleOfThumb},
		"table1":  {"table1", "Spearman correlation of measures vs downstream instability", Table1},
		"table2":  {"table2", "Pairwise dim-prec selection error", Table2},
		"table3":  {"table3", "Distance to oracle under memory budgets", Table3},
		"fig3":    {"fig3", "KGE stability vs memory (TransE)", Fig3},
		"fig4":    {"fig4", "Dimension effect on extra sentiment tasks (appendix)", Fig4},
		"fig5":    {"fig5", "Precision effect on sentiment tasks (appendix)", Fig5},
		"fig6":    {"fig6", "Sentiment instability vs memory, full grid (appendix)", Fig6},
		"fig7":    {"fig7", "Sentiment quality tradeoffs (appendix)", Fig7},
		"fig8":    {"fig8", "NER quality tradeoffs (appendix)", Fig8},
		"fig9":    {"fig9", "Instability vs measure scatter data (appendix)", Fig9},
		"fig10":   {"fig10", "KGE triplet classification, per-dataset thresholds (appendix)", Fig10},
		"fig11":   {"fig11", "BERT instability vs dimension and precision (Section 6.2)", Fig11},
		"fig12":   {"fig12", "fastText subword embeddings (appendix E.1)", Fig12},
		"fig13":   {"fig13", "CNN and BiLSTM-CRF downstream models (appendix E.2)", Fig13},
		"fig14":   {"fig14", "Relaxed seeds and fine-tuned embeddings (appendix E.3/E.4)", Fig14},
		"fig15":   {"fig15", "Downstream learning rate effect (appendix E.5)", Fig15},
		"table8":  {"table8", "Hyperparameter selection for alpha and k (appendix D.3)", Table8},
		"table9":  {"table9", "MR/MPQA versions of Tables 1-3 (appendix D.5)", Table9},
		"table10": {"table10", "Worst-case pairwise selection regret (appendix D.5)", Table10},
		"table11": {"table11", "Worst-case budget oracle distance (appendix D.5)", Table11},
		"table13": {"table13", "Randomness source comparison (appendix E.3)", Table13},
		"prop1":   {"prop1", "Proposition 1 closed form vs Monte-Carlo", Prop1},
	}
}

// IDs returns the registered experiment ids in sorted order.
func IDs() []string {
	reg := Registry()
	ids := make([]string, 0, len(reg))
	for id := range reg {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes the experiment with the given id; a canceled ctx stops it
// before its next training, grid cell, or task.
func Run(ctx context.Context, r *Runner, id string) ([]*Table, error) {
	exp, ok := Registry()[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (known: %v)", id, IDs())
	}
	return exp.Run(ctx, r)
}
