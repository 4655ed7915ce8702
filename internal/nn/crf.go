package nn

import (
	"math/rand"

	"anchor/internal/autodiff"
	"anchor/internal/floats"
	"anchor/internal/matrix"
)

// CRF is a linear-chain conditional random field decoding layer over T
// tags, used by the BiLSTM-CRF NER model (Appendix E.2). Trans[i][j] is
// the score of transitioning from tag i to tag j; Start and End score the
// boundary transitions.
type CRF struct {
	T     int
	Trans *autodiff.Param // T x T
	Start *autodiff.Param // 1 x T
	End   *autodiff.Param // 1 x T
}

// NewCRF returns a CRF with small random transition scores.
func NewCRF(name string, tags int, rng *rand.Rand) *CRF {
	tr := matrix.NewDenseRand(tags, tags, 0.1, rng)
	st := matrix.NewDenseRand(1, tags, 0.1, rng)
	en := matrix.NewDenseRand(1, tags, 0.1, rng)
	return &CRF{
		T:     tags,
		Trans: autodiff.NewParam(name+".trans", tr),
		Start: autodiff.NewParam(name+".start", st),
		End:   autodiff.NewParam(name+".end", en),
	}
}

// Params implements Module.
func (c *CRF) Params() []*autodiff.Param {
	return []*autodiff.Param{c.Trans, c.Start, c.End}
}

// NegLogLikelihood returns −log p(tags | emissions) as a scalar node.
// emissions is n-by-T (per-token tag scores); tags is the gold sequence.
func (c *CRF) NegLogLikelihood(tp *autodiff.Tape, emissions *autodiff.Node, tags []int) *autodiff.Node {
	n := emissions.Value.Rows
	if n == 0 || len(tags) != n {
		panic("nn: CRF sequence/tags mismatch")
	}
	trans := tp.Use(c.Trans)
	start := tp.Use(c.Start)
	end := tp.Use(c.End)

	// Partition function via the forward algorithm in log space.
	// alpha is 1-by-T; alpha_0 = start + emit_0.
	alpha := tp.Add(start, tp.SliceRows(emissions, 0, 1))
	for t := 1; t < n; t++ {
		// scores[i][j] = alpha[i] + trans[i][j]; reduce over i.
		scores := tp.AddColVec(trans, tp.Reshape(alpha, c.T, 1))
		alpha = tp.Add(tp.LogSumExpCols(scores), tp.SliceRows(emissions, t, t+1))
	}
	alpha = tp.Add(alpha, end)
	logZ := tp.LogSumExpCols(tp.Reshape(alpha, c.T, 1))

	// Gold path score.
	score := tp.Add(tp.At(start, 0, tags[0]), tp.At(emissions, 0, tags[0]))
	for t := 1; t < n; t++ {
		score = tp.Add(score, tp.At(trans, tags[t-1], tags[t]))
		score = tp.Add(score, tp.At(emissions, t, tags[t]))
	}
	score = tp.Add(score, tp.At(end, 0, tags[n-1]))

	return tp.Sub(logZ, score)
}

// NLLValue returns −log p(tags | emissions) as a plain float — the same
// value NegLogLikelihood records on a tape, computed without autodiff.
// Used for validation scoring, where no gradients are needed.
func (c *CRF) NLLValue(emissions *matrix.Dense, tags []int) float64 {
	n := emissions.Rows
	if n == 0 || len(tags) != n {
		panic("nn: CRF sequence/tags mismatch")
	}
	alpha := make([]float64, c.T)
	next := make([]float64, c.T)
	col := make([]float64, c.T)
	for j := 0; j < c.T; j++ {
		alpha[j] = c.Start.Value.At(0, j) + emissions.At(0, j)
	}
	for t := 1; t < n; t++ {
		for j := 0; j < c.T; j++ {
			for i := 0; i < c.T; i++ {
				col[i] = alpha[i] + c.Trans.Value.At(i, j)
			}
			next[j] = floats.LogSumExp(col) + emissions.At(t, j)
		}
		alpha, next = next, alpha
	}
	for j := 0; j < c.T; j++ {
		alpha[j] += c.End.Value.At(0, j)
	}
	logZ := floats.LogSumExp(alpha)

	score := c.Start.Value.At(0, tags[0]) + emissions.At(0, tags[0])
	for t := 1; t < n; t++ {
		score += c.Trans.Value.At(tags[t-1], tags[t]) + emissions.At(t, tags[t])
	}
	score += c.End.Value.At(0, tags[n-1])
	return logZ - score
}

// Decode returns the Viterbi-optimal tag sequence for the given emission
// scores (no gradients involved).
func (c *CRF) Decode(emissions *matrix.Dense) []int {
	n := emissions.Rows
	if n == 0 {
		return nil
	}
	tr := c.Trans.Value
	delta := make([]float64, c.T)
	for j := 0; j < c.T; j++ {
		delta[j] = c.Start.Value.At(0, j) + emissions.At(0, j)
	}
	back := make([][]int, n)
	for t := 1; t < n; t++ {
		back[t] = make([]int, c.T)
		next := make([]float64, c.T)
		for j := 0; j < c.T; j++ {
			best, bi := delta[0]+tr.At(0, j), 0
			for i := 1; i < c.T; i++ {
				if s := delta[i] + tr.At(i, j); s > best {
					best, bi = s, i
				}
			}
			next[j] = best + emissions.At(t, j)
			back[t][j] = bi
		}
		delta = next
	}
	for j := 0; j < c.T; j++ {
		delta[j] += c.End.Value.At(0, j)
	}
	path := make([]int, n)
	path[n-1] = floats.ArgMax(delta)
	for t := n - 1; t > 0; t-- {
		path[t-1] = back[t][path[t]]
	}
	return path
}
