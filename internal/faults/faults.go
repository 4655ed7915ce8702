// Package faults is the deterministic, seeded fault-injection framework
// behind the serving tier's chaos tests. Production code registers named
// injection sites at its failure points — disk reads in internal/store,
// snapshot loads in internal/query, request handling in internal/serve —
// and calls the site helpers (Error, Corrupt, Sleep, Crash) at those
// points. With no plan active the helpers are inert: one atomic nil
// check and out, so the sites cost nothing in production.
//
// Tests activate a Plan: a seeded schedule of Rules, each binding a fault
// kind (I/O error, corrupt bytes, latency, panic) to one site with a
// probability, a visit period, and an injection cap. All randomness
// flows from per-site RNGs derived from the plan seed, so a
// site's injection decisions depend only on the plan seed and that site's
// visit count — the same discipline (seeded, order-fixed) the rest of the
// module's determinism contract demands, which is why this package sits
// in anchorlint's deterministic-packages set. Under concurrency the
// interleaving of visits across goroutines still varies, so chaos tests
// assert schedule-independent invariants (every success is bitwise equal
// to the fault-free oracle) rather than exact fault sequences.
//
// Sites are registered up front (Register, usually in a var declaration)
// and NewPlan rejects rules naming unregistered sites, so a site renamed
// in production code cannot silently turn a chaos schedule into a no-op.
package faults

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies what an injected fault does at a site.
type Kind int

const (
	// KindError makes the site's Error helper return an injected
	// *InjectedError (callers treat it exactly like a real I/O failure).
	KindError Kind = iota
	// KindCorrupt makes the site's Corrupt helper flip deterministic bytes
	// in the payload passing through it.
	KindCorrupt
	// KindLatency makes the site's Sleep helper block for the rule's
	// Latency (bounded by the caller's context).
	KindLatency
	// KindPanic makes the site's Crash helper panic — the injected fault
	// for panic-recovery middleware.
	KindPanic
)

// String names the kind for events and errors.
func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindCorrupt:
		return "corrupt"
	case KindLatency:
		return "latency"
	case KindPanic:
		return "panic"
	}
	return fmt.Sprintf("kind%d", int(k))
}

// InjectedError is the error type returned by armed KindError rules;
// errors.As distinguishes injected failures from real ones in tests.
type InjectedError struct {
	// Site is the injection site that fired.
	Site string
	// Visit is the 1-based visit count at which the fault fired.
	Visit int
}

// Error implements error.
func (e *InjectedError) Error() string {
	return fmt.Sprintf("faults: injected I/O error at %s (visit %d)", e.Site, e.Visit)
}

// Rule schedules one fault kind at one site.
type Rule struct {
	// Site names the registered injection site.
	Site string
	// Kind selects the fault.
	Kind Kind
	// Prob is the per-visit injection probability in [0, 1], drawn from
	// the site's seeded RNG. 0 means "every visit the other gates allow"
	// (i.e. it is treated as 1).
	Prob float64
	// Every, when > 1, arms the rule only on every Every-th visit of the
	// site (1st, Every+1-th, ...). 0 and 1 mean every visit.
	Every int
	// After skips the site's first After visits before the rule can fire.
	After int
	// Count caps the total injections of this rule (0 = unlimited).
	Count int
	// Latency is the sleep duration for KindLatency rules.
	Latency time.Duration
}

// Event records one injection for test assertions.
type Event struct {
	// Site is where the fault fired.
	Site string
	// Kind is what fired.
	Kind Kind
	// Visit is the site's 1-based visit count at firing time.
	Visit int
}

// ruleState is a Rule plus its mutable schedule state.
type ruleState struct {
	Rule
	fired int
}

// siteState serializes scheduling decisions for one site.
type siteState struct {
	mu     sync.Mutex
	rng    *rand.Rand
	visits int
	rules  []*ruleState
}

// Plan is one seeded fault schedule. Construct with NewPlan, install with
// Activate. A Plan is safe for concurrent use by many request goroutines.
type Plan struct {
	seed  int64
	sites map[string]*siteState

	mu     sync.Mutex
	events []Event
}

// registry is the process-wide set of registered site names.
var (
	registryMu sync.Mutex
	registry   = map[string]bool{}
)

// Register declares an injection site and returns its name, so production
// packages can register in a var declaration:
//
//	var siteBinRead = faults.Register("store/bin.read")
//
// Registering the same name twice is fine (the registry is a set).
func Register(site string) string {
	registryMu.Lock()
	registry[site] = true
	registryMu.Unlock()
	return site
}

// Sites lists the registered injection sites, sorted.
//
//anchorlint:ignore testonly the chaos suite (internal/serve chaos_test.go) checks its plan has a rule for every site listed
func Sites() []string {
	registryMu.Lock()
	defer registryMu.Unlock()
	out := make([]string, 0, len(registry))
	for s := range registry {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// NewPlan builds a seeded fault schedule. Each site draws from its own
// RNG seeded by (seed, site), so one site's decisions are independent of
// every other site's visit order. Rules naming unregistered sites are
// rejected — a renamed production site must fail the test that schedules
// it, not silently stop injecting.
func NewPlan(seed int64, rules ...Rule) (*Plan, error) {
	p := &Plan{seed: seed, sites: map[string]*siteState{}}
	registryMu.Lock()
	defer registryMu.Unlock()
	for _, r := range rules {
		if !registry[r.Site] {
			return nil, fmt.Errorf("faults: rule targets unregistered site %q (have %d registered sites)", r.Site, len(registry))
		}
		if r.Prob < 0 || r.Prob > 1 {
			return nil, fmt.Errorf("faults: rule at %s: probability %v outside [0, 1]", r.Site, r.Prob)
		}
		st := p.sites[r.Site]
		if st == nil {
			st = &siteState{rng: rand.New(rand.NewSource(siteSeed(seed, r.Site)))}
			p.sites[r.Site] = st
		}
		st.rules = append(st.rules, &ruleState{Rule: r})
	}
	return p, nil
}

// MustPlan is NewPlan for tests whose rules are static.
//
//anchorlint:ignore testonly builds the fault plans of the chaos and recovery tests in serve, store and query
func MustPlan(seed int64, rules ...Rule) *Plan {
	p, err := NewPlan(seed, rules...)
	if err != nil {
		panic(err)
	}
	return p
}

// siteSeed derives a site's RNG seed from the plan seed and the site name
// (FNV-1a over the name, folded with the seed).
func siteSeed(seed int64, site string) int64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(site); i++ {
		h ^= uint64(site[i])
		h *= 1099511628211
	}
	return seed ^ int64(h)
}

// active is the installed plan; nil (the production state) makes every
// site helper a single atomic load.
var active atomic.Pointer[Plan]

// Activate installs p as the process-wide fault plan and returns the
// deactivation function. Tests typically defer it:
//
//	defer faults.Activate(plan)()
//
// Activating over an already-active plan replaces it.
//
//anchorlint:ignore testonly installs the fault plans of the chaos and recovery tests in serve, store and query
func Activate(p *Plan) (deactivate func()) {
	active.Store(p)
	return func() { active.CompareAndSwap(p, nil) }
}

// Fired counts the injections of kind at site so far.
//
//anchorlint:ignore testonly the chaos suite (internal/serve chaos_test.go) asserts its schedule fired
func (p *Plan) Fired(site string, kind Kind) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, ev := range p.events {
		if ev.Site == site && ev.Kind == kind {
			n++
		}
	}
	return n
}

// arm visits the site and returns the armed rule of the wanted kind, if
// any. Each call counts one visit; a site visited by several helpers
// (Error then Corrupt, say) advances once per helper call, keeping each
// helper's decision sequence deterministic.
func (p *Plan) arm(site string, want Kind) *ruleState {
	st := p.sites[site]
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.visits++
	var hit *ruleState
	for _, r := range st.rules {
		if r.Kind != want {
			continue
		}
		if r.Count > 0 && r.fired >= r.Count {
			continue
		}
		if st.visits <= r.After {
			continue
		}
		if e := r.Every; e > 1 && (st.visits-r.After-1)%e != 0 {
			continue
		}
		if r.Prob > 0 && r.Prob < 1 && st.rng.Float64() >= r.Prob {
			continue
		}
		r.fired++
		hit = r
		break
	}
	if hit == nil {
		return nil
	}
	p.mu.Lock()
	p.events = append(p.events, Event{Site: site, Kind: want, Visit: st.visits})
	p.mu.Unlock()
	visit := st.visits
	// Copy the rule so callers read schedule-free fields without racing
	// future arms.
	out := &ruleState{Rule: hit.Rule, fired: visit}
	return out
}

// Error returns an injected I/O error when site has an armed KindError
// rule, nil otherwise (and always nil with no plan active).
func Error(site string) error {
	p := active.Load()
	if p == nil {
		return nil
	}
	if r := p.arm(site, KindError); r != nil {
		return &InjectedError{Site: site, Visit: r.fired}
	}
	return nil
}

// Corrupt returns data with deterministically chosen bytes flipped when
// site has an armed KindCorrupt rule; otherwise it returns data untouched
// (same backing array — the inert path copies nothing). The corrupted
// payload is a fresh copy: callers' buffers are never mutated in place.
func Corrupt(site string, data []byte) []byte {
	p := active.Load()
	if p == nil {
		return data
	}
	r := p.arm(site, KindCorrupt)
	if r == nil || len(data) == 0 {
		return data
	}
	st := p.sites[site]
	out := append([]byte(nil), data...)
	st.mu.Lock()
	// Flip 1..4 bytes at seeded offsets: enough to tear a header field, a
	// payload value, or a checksum, wherever the offsets land.
	n := 1 + st.rng.Intn(4)
	for i := 0; i < n; i++ {
		out[st.rng.Intn(len(out))] ^= byte(1 + st.rng.Intn(255))
	}
	st.mu.Unlock()
	return out
}

// Sleep blocks for the armed KindLatency rule's duration, returning early
// when ctx expires. With no armed rule (or no plan) it returns
// immediately.
func Sleep(ctx context.Context, site string) {
	p := active.Load()
	if p == nil {
		return
	}
	r := p.arm(site, KindLatency)
	if r == nil || r.Latency <= 0 {
		return
	}
	//anchorlint:ignore seedrand injected latency only delays scheduled work; answers are bitwise identical with or without the sleep (chaos suite invariant)
	timer := time.NewTimer(r.Latency)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-ctx.Done():
	}
}

// Crash panics with a recognizable value when site has an armed KindPanic
// rule — the injected fault for panic-recovery middleware.
func Crash(site string) {
	p := active.Load()
	if p == nil {
		return
	}
	if r := p.arm(site, KindPanic); r != nil {
		panic(fmt.Sprintf("faults: injected panic at %s (visit %d)", site, r.fired))
	}
}
