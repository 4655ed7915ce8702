package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
)

// anchorWord is a word every configuration's synthetic vocabulary holds
// (docs/HTTP_API.md uses it in its examples); the oracle reaches the rest
// of a vocabulary through its neighbor list.
const anchorWord = "fezadis"

// scoreTol bounds how far a served cosine may sit from the oracle's: the
// oracle sums in its own order, so the last bits may differ.
const scoreTol = 1e-9

// snap identifies one served snapshot.
type snap struct {
	Algo string
	Year int
	Dim  int
	Bits int
	Seed int64
}

func (s snap) String() string {
	return fmt.Sprintf("%s-%d-d%d-b%d-s%d", s.Algo, s.Year, s.Dim, s.Bits, s.Seed)
}

// Wire shapes of the answers the benchmark checks.
type neighbor struct {
	Word  string  `json:"word"`
	ID    int     `json:"id"`
	Score float64 `json:"score"`
}

type neighborsAnswer struct {
	Dim     int `json:"dim"`
	Bits    int `json:"bits"`
	K       int `json:"k"`
	Results []struct {
		Word      string     `json:"word"`
		Neighbors []neighbor `json:"neighbors"`
	} `json:"results"`
}

type deltaAnswer struct {
	Dim     int `json:"dim"`
	Bits    int `json:"bits"`
	K       int `json:"k"`
	Results []struct {
		Word    string     `json:"word"`
		Overlap float64    `json:"overlap"`
		Shared  int        `json:"shared"`
		A       []neighbor `json:"a"`
		B       []neighbor `json:"b"`
	} `json:"results"`
	MeanOverlap float64 `json:"mean_overlap"`
}

type vectorsAnswer struct {
	Bits    int `json:"bits"`
	Vectors []struct {
		Word   string    `json:"word"`
		ID     int       `json:"id"`
		Vector []float64 `json:"vector"`
	} `json:"vectors"`
}

// neighborsBody is the /v1/neighbors request body. K 0 is left out, so
// the service answers with its default.
type neighborsBody struct {
	Algo  string   `json:"algo"`
	Words []string `json:"words"`
	Dim   int      `json:"dim"`
	K     int      `json:"k,omitempty"`
	Year  int      `json:"year"`
	Bits  int      `json:"bits"`
	Seed  int64    `json:"seed"`
}

// deltaBody is the /v1/neighbors/delta request body.
type deltaBody struct {
	Algo  string   `json:"algo"`
	Words []string `json:"words"`
	Dim   int      `json:"dim"`
	Bits  int      `json:"bits"`
	Seed  int64    `json:"seed"`
}

func vectorsPath(s snap, words []string) string {
	q := url.Values{}
	q.Set("algo", s.Algo)
	q.Set("dim", strconv.Itoa(s.Dim))
	q.Set("year", strconv.Itoa(s.Year))
	q.Set("bits", strconv.Itoa(s.Bits))
	q.Set("seed", strconv.FormatInt(s.Seed, 10))
	q.Set("words", strings.Join(words, ","))
	return "/v1/vectors?" + q.Encode()
}

// oracle is one snapshot's served rows and vocabulary, fetched before the
// measured phase. It answers exact cosine top-k independently of the
// server's kernels, batching and top-k selection.
type oracle struct {
	s     snap
	words []string // row id -> word
	ids   map[string]int
	rows  [][]float64
	unit  [][]float64 // rows scaled to unit length (zero rows stay zero)
	sims  map[int][]float64
}

// loadOracle fetches snapshot s: its row count from /v1/train, its
// vocabulary from the anchor word's full neighbor list, and every row
// from /v1/vectors. Full-precision rows are cross-checked bitwise against
// the matrix /v1/train returns, and vocabulary, matrix and rows together
// against the snapshot's pinned digest.
func loadOracle(ctx context.Context, e *env, s snap) (*oracle, error) {
	var tr struct {
		Rows    int       `json:"rows"`
		Vectors []float64 `json:"vectors"`
	}
	if err := e.call(ctx, http.MethodPost, "/v1/train", map[string]any{
		"algo": s.Algo, "year": s.Year, "dim": s.Dim, "seed": s.Seed, "return_vectors": true,
	}, &tr); err != nil {
		return nil, err
	}
	n := tr.Rows
	if n < 2 {
		return nil, fmt.Errorf("%s: %d rows", s, n)
	}
	var nb neighborsAnswer
	if err := e.call(ctx, http.MethodPost, "/v1/neighbors", neighborsBody{
		Algo: s.Algo, Words: []string{anchorWord}, Dim: s.Dim, K: n - 1, Year: s.Year, Bits: s.Bits, Seed: s.Seed,
	}, &nb); err != nil {
		return nil, err
	}
	if len(nb.Results) != 1 || len(nb.Results[0].Neighbors) != n-1 {
		return nil, fmt.Errorf("%s: full neighbor list of %q has the wrong shape", s, anchorWord)
	}
	o := &oracle{s: s, words: make([]string, n), ids: make(map[string]int, n), sims: map[int][]float64{}}
	for _, x := range nb.Results[0].Neighbors {
		if x.ID < 0 || x.ID >= n || o.words[x.ID] != "" || x.Word == "" {
			return nil, fmt.Errorf("%s: bad vocabulary entry %+v", s, x)
		}
		o.words[x.ID] = x.Word
	}
	for id, w := range o.words {
		if w == "" {
			o.words[id] = anchorWord
		}
		o.ids[o.words[id]] = id
	}
	if len(o.ids) != n {
		return nil, fmt.Errorf("%s: vocabulary has duplicate words", s)
	}
	var va vectorsAnswer
	if err := e.call(ctx, http.MethodGet, vectorsPath(s, o.words), nil, &va); err != nil {
		return nil, err
	}
	if len(va.Vectors) != n {
		return nil, fmt.Errorf("%s: %d vectors for %d words", s, len(va.Vectors), n)
	}
	o.rows = make([][]float64, n)
	o.unit = make([][]float64, n)
	for id, v := range va.Vectors {
		if v.ID != id || len(v.Vector) != s.Dim {
			return nil, fmt.Errorf("%s: vector %d has id %d, length %d", s, id, v.ID, len(v.Vector))
		}
		if s.Bits == 32 {
			for j, x := range v.Vector {
				if x != tr.Vectors[id*s.Dim+j] {
					return nil, fmt.Errorf("%s: /v1/vectors row %d differs from the trained matrix", s, id)
				}
			}
		}
		o.rows[id] = v.Vector
		o.unit[id] = unitRow(v.Vector)
	}
	e.ref.check(s.String(), snapshotDigest(o.words, tr.Vectors, o.rows))
	return o, nil
}

func unitRow(v []float64) []float64 {
	var ss float64
	for _, x := range v {
		ss += x * x
	}
	u := make([]float64, len(v))
	if ss == 0 {
		return u
	}
	inv := 1 / math.Sqrt(ss)
	for i, x := range v {
		u[i] = x * inv
	}
	return u
}

// similarities returns the cosine of row q against every row.
func (o *oracle) similarities(q int) []float64 {
	if s, ok := o.sims[q]; ok {
		return s
	}
	s := make([]float64, len(o.unit))
	for j, u := range o.unit {
		var dot float64
		for i, x := range o.unit[q] {
			dot += x * u[i]
		}
		s[j] = dot
	}
	o.sims[q] = s
	return s
}

// checkNeighbors verifies one word's served top-k: the right length, real
// rows named by their own words, scores equal to the true cosines, the
// served order (score descending, id ascending on ties), and no row left
// out that beats the last one returned.
func (o *oracle) checkNeighbors(word string, k int, got []neighbor) error {
	q, ok := o.ids[word]
	if !ok {
		return fmt.Errorf("%s: %q is not in the vocabulary", o.s, word)
	}
	n := len(o.words)
	if want := min(k, n-1); len(got) != want {
		return fmt.Errorf("%s: %q: %d neighbors, want %d", o.s, word, len(got), want)
	}
	sims := o.similarities(q)
	seen := make(map[int]bool, len(got))
	for i, g := range got {
		if g.ID < 0 || g.ID >= n || g.ID == q || seen[g.ID] {
			return fmt.Errorf("%s: %q: bad neighbor id %d", o.s, word, g.ID)
		}
		seen[g.ID] = true
		if g.Word != o.words[g.ID] {
			return fmt.Errorf("%s: %q: neighbor %d named %q, want %q", o.s, word, g.ID, g.Word, o.words[g.ID])
		}
		if math.Abs(g.Score-sims[g.ID]) > scoreTol {
			return fmt.Errorf("%s: %q: neighbor %d score %v, oracle %v", o.s, word, g.ID, g.Score, sims[g.ID])
		}
		if i > 0 {
			p := got[i-1]
			if g.Score > p.Score || (g.Score == p.Score && g.ID < p.ID) {
				return fmt.Errorf("%s: %q: neighbors out of order at %d", o.s, word, i)
			}
		}
	}
	last := got[len(got)-1].Score
	for j, v := range sims {
		if j != q && !seen[j] && v > last+scoreTol {
			return fmt.Errorf("%s: %q: row %d (cosine %v) missing from the top %d", o.s, word, j, v, k)
		}
	}
	return nil
}

// checkVectors verifies a vector lookup against the oracle rows.
func (o *oracle) checkVectors(words []string, got vectorsAnswer) error {
	if got.Bits != o.s.Bits || len(got.Vectors) != len(words) {
		return fmt.Errorf("%s: vectors answer has bits %d and %d rows", o.s, got.Bits, len(got.Vectors))
	}
	for i, v := range got.Vectors {
		id, ok := o.ids[words[i]]
		if !ok || v.Word != words[i] || v.ID != id {
			return fmt.Errorf("%s: vectors entry %d is %q/%d", o.s, i, v.Word, v.ID)
		}
		if len(v.Vector) != len(o.rows[id]) {
			return fmt.Errorf("%s: %q: vector length %d", o.s, v.Word, len(v.Vector))
		}
		for j, x := range v.Vector {
			if x != o.rows[id][j] {
				return fmt.Errorf("%s: %q: vector differs from the snapshot row", o.s, v.Word)
			}
		}
	}
	return nil
}

// overlap counts the neighbor ids two lists share.
func overlap(a, b []neighbor) int {
	in := make(map[int]bool, len(a))
	for _, x := range a {
		in[x.ID] = true
	}
	n := 0
	for _, x := range b {
		if in[x.ID] {
			n++
		}
	}
	return n
}

// selectAnswer is the /v1/select answer.
type selectAnswer struct {
	Seed       int64       `json:"seed"`
	BudgetBits int         `json:"budget_bits"`
	Candidates []candidate `json:"candidates"`
	Best       *candidate  `json:"best"`
}

type candidate struct {
	Dim          int     `json:"dim"`
	Bits         int     `json:"bits"`
	MemoryBits   int     `json:"memory_bits"`
	Value        float64 `json:"value"`
	WithinBudget bool    `json:"within_budget"`
}

// checkSelect verifies a ranking's structure: every grid cell exactly
// once with its memory cost and budget flag, finite non-negative measure
// values in ascending order (ties toward less memory), and the best cell
// being the first one within budget.
func checkSelect(got selectAnswer, seed int64, dims, precs []int, budget int) error {
	if got.Seed != seed || got.BudgetBits != budget {
		return fmt.Errorf("select: echoed seed %d budget %d, want %d %d", got.Seed, got.BudgetBits, seed, budget)
	}
	if len(got.Candidates) != len(dims)*len(precs) {
		return fmt.Errorf("select: %d candidates for a %dx%d grid", len(got.Candidates), len(dims), len(precs))
	}
	cells := map[[2]int]bool{}
	for _, d := range dims {
		for _, b := range precs {
			cells[[2]int{d, b}] = true
		}
	}
	var best *candidate
	for i, c := range got.Candidates {
		cell := [2]int{c.Dim, c.Bits}
		if !cells[cell] {
			return fmt.Errorf("select: unexpected or repeated cell %v", cell)
		}
		delete(cells, cell)
		if c.MemoryBits != c.Dim*c.Bits || c.WithinBudget != (c.MemoryBits <= budget) {
			return fmt.Errorf("select: cell %v has memory %d, within_budget %v", cell, c.MemoryBits, c.WithinBudget)
		}
		if math.IsNaN(c.Value) || math.IsInf(c.Value, 0) || c.Value < 0 {
			return fmt.Errorf("select: cell %v has value %v", cell, c.Value)
		}
		if i > 0 {
			p := got.Candidates[i-1]
			if c.Value < p.Value || (c.Value == p.Value && c.MemoryBits < p.MemoryBits) {
				return fmt.Errorf("select: candidates out of order at %d", i)
			}
		}
		if best == nil && c.WithinBudget {
			best = &got.Candidates[i]
		}
	}
	if (best == nil) != (got.Best == nil) || (best != nil && *got.Best != *best) {
		return fmt.Errorf("select: best is %+v, want %+v", got.Best, best)
	}
	return nil
}
