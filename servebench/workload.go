package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// request is one distinct API call a workload sends, possibly many times.
type request struct {
	method, path string
	body         []byte
	// check verifies an answer's content against the oracle.
	check func(body []byte) error

	first atomic.Pointer[[]byte] // the first 200 answer
	count atomic.Int64           // 200 answers received
}

// record registers a 200 answer. The first is kept for check; every later
// one must repeat it byte for byte, because answers are deterministic
// whatever the batching, load or worker count.
func (r *request) record(body []byte) bool {
	r.count.Add(1)
	if r.first.CompareAndSwap(nil, &body) {
		return true
	}
	return bytes.Equal(*r.first.Load(), body)
}

func jsonRequest(path string, in any, check func([]byte) error) *request {
	body, err := json.Marshal(in)
	if err != nil {
		panic(err) // request bodies are plain structs of strings and ints
	}
	return &request{method: http.MethodPost, path: path, body: body, check: check}
}

// plan is a workload's seeded request source.
type plan struct {
	// picker returns a load client's request sequence, drawn from rng.
	picker func(rng *rand.Rand) func() *request
	// requests lists every distinct request the plan has sent.
	requests func() []*request
	// verify runs checks that need the server after the measured phase
	// (nil when there are none).
	verify func(ctx context.Context, e *env) error
	// probe is the snapshot the per-layer probes query.
	probe snap
}

// issued interns the requests a plan builds on the fly, so a repeat of an
// earlier request shares its first answer and count.
type issued struct {
	mu    sync.Mutex
	byKey map[string]*request
	order []*request
}

func (is *issued) add(r *request) *request {
	key := r.method + " " + r.path + " " + string(r.body)
	is.mu.Lock()
	defer is.mu.Unlock()
	if old, ok := is.byKey[key]; ok {
		return old
	}
	if is.byKey == nil {
		is.byKey = map[string]*request{}
	}
	is.byKey[key] = r
	is.order = append(is.order, r)
	return r
}

func (is *issued) all() []*request {
	is.mu.Lock()
	defer is.mu.Unlock()
	return append([]*request(nil), is.order...)
}

// mixWords is the word count of one step of the chaos suite's mix.
const mixWords = 3

// mixPlan replays the request mix of the chaos suite
// (internal/serve/chaos_test.go, chaosMix) over a cycle of snapshots: at
// each snapshot in turn, one single-word read per word of a three-word
// draw, then one /v1/vectors lookup of the same three words. The chaos
// suite reads three fixed words; here each step draws its words uniformly
// from the seeded rng, and each client starts the cycle at a seeded
// snapshot.
func mixPlan(cycle []*oracle, words []string, read func(o *oracle, word string) *request, probe snap) *plan {
	var is issued
	return &plan{
		picker: func(rng *rand.Rand) func() *request {
			step := rng.Intn(len(cycle)) * (mixWords + 1)
			var ws []string
			return func() *request {
				o, j := cycle[step/(mixWords+1)%len(cycle)], step%(mixWords+1)
				step++
				if j == 0 {
					ws = pick(rng, words, mixWords)
				}
				if j < mixWords {
					return is.add(read(o, ws[j]))
				}
				return is.add(vectorsRequest(o, ws))
			}
		},
		requests: is.all,
		probe:    probe,
	}
}

// workload is one traffic mix against one `anchor serve` configuration.
type workload struct {
	config  string // anchor serve -config
	clients int    // closed-loop load clients
	warmup  time.Duration
	// setup brings a fresh server to the state the workload measures:
	// artifacts trained and persisted, snapshots resident. It is timed.
	setup func(ctx context.Context, e *env, seed int64) error
	// plan fetches oracles and builds the seeded request source. Untimed.
	plan func(ctx context.Context, e *env, seed int64) (*plan, error)
}

// Two read clients keep a two-CPU host below saturation: with eight,
// throughput tracked whatever CPU the host left free and runs spread by
// 15% or more. select-cold already trains on every CPU, and a second
// client doubled its spread; its first seconds of answers also run some
// 15% slower than the rest, hence the longer warm-up.
var workloads = map[string]workload{
	"dim-alternating": {config: "bench", clients: 2, warmup: time.Second, setup: altSetup, plan: altPlan},
	"budget-frontier": {config: "bench", clients: 2, warmup: time.Second, setup: frontierSetup, plan: frontierPlan},
	"select-cold":     {config: "small", clients: 1, warmup: 2 * time.Second, setup: selectSetup, plan: selectPlan},
}

// defaultK is the neighbor count the service answers with when a request
// sends none: the experiment config's K, the paper's k-NN measure's 5.
const defaultK = 5

// dim-alternating: the chaos suite's mix as it stands, neighbor reads at
// the service's default k and precision on mc snapshots that alternate
// between dimensions 8 and 16.
var altSnaps = []snap{{"mc", 2017, 8, 32, 1}, {"mc", 2017, 16, 32, 1}}

func altSetup(ctx context.Context, e *env, _ int64) error {
	for _, s := range altSnaps {
		if err := e.call(ctx, http.MethodPost, "/v1/neighbors", neighborsBody{
			Algo: s.Algo, Words: []string{anchorWord}, Dim: s.Dim, Year: s.Year, Bits: s.Bits, Seed: s.Seed,
		}, nil); err != nil {
			return err
		}
	}
	return nil
}

func altPlan(ctx context.Context, e *env, _ int64) (*plan, error) {
	ors, err := loadOracles(ctx, e, altSnaps)
	if err != nil {
		return nil, err
	}
	words := sharedWords(ors)
	return mixPlan(ors, words, func(o *oracle, w string) *request {
		return neighborsRequest(o, []string{w})
	}, altSnaps[0]), nil
}

// budget-frontier: the same mix over the cells a serving budget chooses
// among. The budget is the documented `anchor serve -serving-budget 256`
// (cmd/anchor/main.go); its cells are those of the bench config's ladders
// (dims 8..128, bits 1..32) that spend exactly 256 bits per word: the
// float64 path at 8x32 and packed codes at 32x8, 64x4 and 128x2. The
// single-word reads are Wiki'17 -> Wiki'18 neighbor deltas, the k-NN
// instability the paper measures, where the chaos suite sends plain
// neighbor reads.
var frontierCells = [][2]int{{8, 32}, {32, 8}, {64, 4}, {128, 2}}

func frontierSetup(ctx context.Context, e *env, _ int64) error {
	for _, c := range frontierCells {
		if err := e.call(ctx, http.MethodPost, "/v1/neighbors/delta", deltaBody{
			Algo: "mc", Words: []string{anchorWord}, Dim: c[0], Bits: c[1], Seed: 1,
		}, nil); err != nil {
			return err
		}
	}
	return nil
}

func frontierPlan(ctx context.Context, e *env, _ int64) (*plan, error) {
	var snaps []snap
	for _, c := range frontierCells {
		for _, y := range []int{2017, 2018} {
			snaps = append(snaps, snap{"mc", y, c[0], c[1], 1})
		}
	}
	ors, err := loadOracles(ctx, e, snaps)
	if err != nil {
		return nil, err
	}
	var cycle []*oracle
	later := map[*oracle]*oracle{}
	for i := 0; i < len(ors); i += 2 {
		cycle = append(cycle, ors[i])
		later[ors[i]] = ors[i+1]
	}
	return mixPlan(cycle, sharedWords(ors), func(o *oracle, w string) *request {
		return deltaRequest(o, later[o], []string{w})
	}, snaps[0]), nil
}

// select-cold: every request ranks the documented `anchor select` grid
// (cmd/anchor/main.go: mc, dims 8,16,32 x bits 1,4,32, budget 128) cut to
// dimension 8, for a training seed no earlier request used, so each one
// trains, aligns, quantizes, persists and measures from nothing. The full
// grid takes ~0.9 s a request on two CPUs, some twenty answers a run and
// too few for a p90; at dimension 8 a run holds about a hundred. Set-up
// ranks the grid once at refSeed, whose answer is pinned in digest.go.
var (
	selectDims   = []int{8}
	selectPrecs  = []int{1, 4, 32}
	selectBudget = 128
)

// refSeed is the training seed of every pinned answer: the service's
// default seed.
const refSeed = 1

// trainingSeed maps the workload seed and an offset to a training seed no
// other run seed reaches, and never refSeed. Offsets: 500-502 the probes'
// cold trains, 1000 onwards select-cold's measured requests.
func trainingSeed(seed, offset int64) int64 { return seed*1_000_000 + offset }

func selectRequest(seed int64) *request {
	return jsonRequest("/v1/select", map[string]any{
		"algo": "mc", "dims": selectDims, "precisions": selectPrecs,
		"budget_bits": selectBudget, "seed": seed,
	}, func(body []byte) error {
		var got selectAnswer
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		return checkSelect(got, seed, selectDims, selectPrecs, selectBudget)
	})
}

func selectSetup(ctx context.Context, e *env, _ int64) error {
	r := selectRequest(refSeed)
	code, body, err := e.do(ctx, r)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("reference select: status %d: %s", code, body)
	}
	if err := r.check(body); err != nil {
		e.ref.wrong(err)
	}
	e.ref.check(fmt.Sprintf("select-s%d", refSeed), sha256.Sum256(body))
	return nil
}

func selectPlan(_ context.Context, _ *env, seed int64) (*plan, error) {
	var (
		is   issued
		next atomic.Int64
	)
	return &plan{
		picker: func(*rand.Rand) func() *request {
			return func() *request {
				return is.add(selectRequest(trainingSeed(seed, 1000+next.Add(1)-1)))
			}
		},
		requests: is.all,
		// A cold ranking must equal the warm one the store serves later.
		verify: func(ctx context.Context, e *env) error {
			sent := is.all()
			for _, r := range sent[:min(3, len(sent))] {
				code, body, err := e.do(ctx, r)
				if err != nil {
					return err
				}
				if first := r.first.Load(); code != http.StatusOK || first == nil || !bytes.Equal(body, *first) {
					return fmt.Errorf("select %s: warm replay differs from the cold answer", r.body)
				}
			}
			return nil
		},
		probe: snap{"mc", 2017, 8, 32, refSeed},
	}, nil
}

func loadOracles(ctx context.Context, e *env, snaps []snap) ([]*oracle, error) {
	out := make([]*oracle, len(snaps))
	for i, s := range snaps {
		o, err := loadOracle(ctx, e, s)
		if err != nil {
			return nil, err
		}
		out[i] = o
	}
	return out, nil
}

// sharedWords lists the words every oracle's vocabulary holds.
func sharedWords(ors []*oracle) []string {
	var out []string
	for _, w := range ors[0].words {
		all := true
		for _, o := range ors[1:] {
			if _, ok := o.ids[w]; !ok {
				all = false
				break
			}
		}
		if all {
			out = append(out, w)
		}
	}
	return out
}

// pick draws n distinct words.
func pick(rng *rand.Rand, words []string, n int) []string {
	n = min(n, len(words))
	out := make([]string, n)
	for i, j := range rng.Perm(len(words))[:n] {
		out[i] = words[j]
	}
	return out
}

func neighborsRequest(o *oracle, words []string) *request {
	s := o.s
	return jsonRequest("/v1/neighbors", neighborsBody{
		Algo: s.Algo, Words: words, Dim: s.Dim, Year: s.Year, Bits: s.Bits, Seed: s.Seed,
	}, func(body []byte) error {
		var got neighborsAnswer
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if got.Dim != s.Dim || got.Bits != s.Bits || got.K != defaultK || len(got.Results) != len(words) {
			return fmt.Errorf("%s: neighbors answer echoes dim %d bits %d k %d with %d results",
				s, got.Dim, got.Bits, got.K, len(got.Results))
		}
		for i, r := range got.Results {
			if r.Word != words[i] {
				return fmt.Errorf("%s: result %d is for %q, want %q", s, i, r.Word, words[i])
			}
			if err := o.checkNeighbors(r.Word, defaultK, r.Neighbors); err != nil {
				return err
			}
		}
		return nil
	})
}

func vectorsRequest(o *oracle, words []string) *request {
	return &request{method: http.MethodGet, path: vectorsPath(o.s, words), check: func(body []byte) error {
		var got vectorsAnswer
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		return o.checkVectors(words, got)
	}}
}

func deltaRequest(a, b *oracle, words []string) *request {
	s := a.s
	return jsonRequest("/v1/neighbors/delta", deltaBody{
		Algo: s.Algo, Words: words, Dim: s.Dim, Bits: s.Bits, Seed: s.Seed,
	}, func(body []byte) error {
		var got deltaAnswer
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if got.Dim != s.Dim || got.Bits != s.Bits || got.K != defaultK || len(got.Results) != len(words) {
			return fmt.Errorf("%s: delta answer echoes dim %d bits %d k %d with %d results",
				s, got.Dim, got.Bits, got.K, len(got.Results))
		}
		var mean float64
		for i, r := range got.Results {
			if r.Word != words[i] {
				return fmt.Errorf("%s: delta %d is for %q, want %q", s, i, r.Word, words[i])
			}
			if err := a.checkNeighbors(r.Word, defaultK, r.A); err != nil {
				return err
			}
			if err := b.checkNeighbors(r.Word, defaultK, r.B); err != nil {
				return err
			}
			shared := overlap(r.A, r.B)
			if r.Shared != shared || r.Overlap != float64(shared)/float64(len(r.A)) {
				return fmt.Errorf("%s: %q: overlap %v (%d shared), want %d shared", s, r.Word, r.Overlap, r.Shared, shared)
			}
			mean += r.Overlap
		}
		if mean /= float64(len(got.Results)); got.MeanOverlap != mean {
			return fmt.Errorf("%s: mean overlap %v, want %v", s, got.MeanOverlap, mean)
		}
		return nil
	})
}
