package serve

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"anchor"
	"anchor/internal/faults"
)

// The chaos suite drives the HTTP API under a seeded fault schedule that
// spans every registered injection site — disk read errors, corrupted
// artifact bytes, write failures, load errors, latency, and handler
// panics — and asserts the degradation contract end to end: a request
// either succeeds with bytes identical to the fault-free oracle or fails
// with a structured, retryable error. Faults change availability, never
// answers. Run by `make chaos` (and the CI race job) with -race.

// chaosRequest is one entry of the request mix the suite replays.
type chaosRequest struct {
	method, path, body string
}

// chaosService builds a service whose read path is forced through every
// storage tier: a disk cache directory, a one-entry in-process artifact
// LRU, and a query snapshot budget of a single byte (one resident
// snapshot, evicted as soon as the mix alternates dimensions). Each
// alternation re-reads the artifact from disk, exercising the store
// fault sites on the serving path rather than only at warm-up.
func chaosService(t *testing.T, dir string) *anchor.Service {
	t.Helper()
	svc, err := anchor.NewService(
		anchor.WithConfig(tinyConfig()),
		anchor.WithCacheDir(dir),
		anchor.WithCacheCapacity(1),
		anchor.WithQueryBudget(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// chaosMix returns a request mix that alternates dimensions (forcing
// snapshot and artifact evictions between consecutive requests) across
// the neighbors and vectors endpoints.
func chaosMix(words []string) []chaosRequest {
	var mix []chaosRequest
	for _, dim := range []int{8, 16, 8, 16} {
		for _, w := range words {
			mix = append(mix, chaosRequest{
				http.MethodPost, "/v1/neighbors",
				fmt.Sprintf(`{"algo":"mc","dim":%d,"k":3,"words":[%q]}`, dim, w),
			})
		}
		mix = append(mix, chaosRequest{
			http.MethodGet,
			fmt.Sprintf("/v1/vectors?algo=mc&dim=%d&year=2017&seed=1&words=%s", dim, strings.Join(words, ",")),
			"",
		})
	}
	return mix
}

// checkChaosResponse asserts the degradation contract for one response:
// 200 bitwise-equal to the oracle, or one of the structured availability
// errors. Anything else — a different 2xx body, an unstructured error, a
// client-fault 4xx — is a contract violation.
func checkChaosResponse(t *testing.T, req chaosRequest, code int, body string, header http.Header, oracle string) {
	t.Helper()
	switch code {
	case http.StatusOK:
		if body != oracle {
			t.Errorf("%s %s: 200 body differs from fault-free oracle\n got: %s\nwant: %s",
				req.method, req.path, body, oracle)
		}
	case http.StatusTooManyRequests:
		if !strings.Contains(body, `"overloaded"`) || header.Get("Retry-After") == "" {
			t.Errorf("%s %s: malformed 429: %s", req.method, req.path, body)
		}
	case http.StatusServiceUnavailable:
		if !strings.Contains(body, `"deadline_exceeded"`) || header.Get("Retry-After") == "" {
			t.Errorf("%s %s: malformed 503: %s", req.method, req.path, body)
		}
	case http.StatusInternalServerError:
		if !strings.Contains(body, `"internal"`) && !strings.Contains(body, `"internal_panic"`) {
			t.Errorf("%s %s: malformed 500: %s", req.method, req.path, body)
		}
	default:
		t.Errorf("%s %s: status %d outside the degradation contract: %s",
			req.method, req.path, code, body)
	}
}

// chaosRules is the seeded schedule: every registered fault site armed at
// once (TestChaosSeededFaultSchedule checks that against faults.Sites).
// Probabilistic rules model background flakiness; the deterministic
// Every/Count rules guarantee that corruption, panics, and long stalls
// actually fire during the serial stage regardless of scheduling.
var chaosRules = []faults.Rule{
	{Site: "store/bin.read", Kind: faults.KindError, Prob: 0.25},
	{Site: "store/bin.bytes", Kind: faults.KindCorrupt, Every: 3},
	{Site: "store/write", Kind: faults.KindError, Prob: 0.3},
	{Site: "query/load", Kind: faults.KindError, Prob: 0.15},
	{Site: "serve/latency", Kind: faults.KindLatency, Latency: time.Millisecond, Prob: 0.3},
	{Site: "serve/panic", Kind: faults.KindPanic, After: 10, Every: 11, Count: 2},
}

// TestChaosSeededFaultSchedule is the headline chaos run. Stage one
// records a fault-free oracle for the whole request mix. Stage two
// replays the mix serially under the full seeded schedule — the visit
// order is deterministic, so the Every/Count rules provably fire — and
// stage three replays it from concurrent clients under the same
// schedule with admission control enabled. Every response in both
// stages must satisfy the contract, and once the schedule is lifted the
// server must serve the oracle bytes again with a healthy healthz.
func TestChaosSeededFaultSchedule(t *testing.T) {
	armed := map[string]bool{}
	for _, r := range chaosRules {
		armed[r.Site] = true
	}
	for _, site := range faults.Sites() {
		if !armed[site] {
			t.Errorf("registered fault site %s has no rule in the chaos plan", site)
		}
	}

	svc := chaosService(t, t.TempDir())
	srv := New(svc, nil, WithMaxInFlight(4), WithReadTimeout(30*time.Second))
	h := srv.Handler()
	mix := chaosMix(queryWords(t, svc, 3))

	// Stage 1: fault-free oracle.
	oracle := make([]string, len(mix))
	for i, req := range mix {
		rr := do(t, h, req.method, req.path, req.body, nil)
		if rr.Code != http.StatusOK {
			t.Fatalf("oracle %s %s: %d %s", req.method, req.path, rr.Code, rr.Body.String())
		}
		oracle[i] = rr.Body.String()
	}

	plan := faults.MustPlan(8009, chaosRules...)
	deactivate := faults.Activate(plan)

	// Stage 2: serial replay under faults — deterministic visit order.
	for round := 0; round < 3; round++ {
		for i, req := range mix {
			rr := do(t, h, req.method, req.path, req.body, nil)
			checkChaosResponse(t, req, rr.Code, rr.Body.String(), rr.Result().Header, oracle[i])
		}
	}
	for _, want := range []struct {
		site string
		kind faults.Kind
	}{
		{"store/bin.bytes", faults.KindCorrupt},
		{"serve/panic", faults.KindPanic},
		{"serve/latency", faults.KindLatency},
	} {
		if plan.Fired(want.site, want.kind) == 0 {
			t.Errorf("schedule never fired %v at %s; the run proved nothing", want.kind, want.site)
		}
	}

	// Stage 3: concurrent storm under the same schedule.
	const clients = 4
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, req := range mix {
				rr := do(t, h, req.method, req.path, req.body, nil)
				checkChaosResponse(t, req, rr.Code, rr.Body.String(), rr.Result().Header, oracle[i])
			}
		}()
	}
	wg.Wait()
	deactivate()

	// Recovery: with the schedule lifted the exact oracle bytes return and
	// the process reports healthy.
	for i, req := range mix {
		rr := do(t, h, req.method, req.path, req.body, nil)
		if rr.Code != http.StatusOK || rr.Body.String() != oracle[i] {
			t.Fatalf("post-chaos %s %s: %d (bitwise match: %v)",
				req.method, req.path, rr.Code, rr.Body.String() == oracle[i])
		}
	}
	if rr := do(t, h, http.MethodGet, "/v1/healthz", "", nil); rr.Code != http.StatusOK {
		t.Fatalf("healthz after chaos: %d %s", rr.Code, rr.Body.String())
	}
	if rr := do(t, h, http.MethodGet, "/v1/livez", "", nil); rr.Code != http.StatusOK {
		t.Fatalf("livez after chaos: %d", rr.Code)
	}
}

// TestChaosCorruptArtifactRecoveredOverHTTP plants real on-disk damage —
// a flipped byte in a persisted .bin artifact — and asserts the HTTP
// read path recovers without a single 5xx: the damaged file is
// quarantined, the artifact is recomputed and served bitwise identical to
// the pre-damage response, and the rewritten .bin is healthy for the next
// process. The .bin is the only encoding, so no .gob is ever written.
func TestChaosCorruptArtifactRecoveredOverHTTP(t *testing.T) {
	dir := t.TempDir()

	// Process one: warm the cache directory and record the oracle.
	svc1 := chaosService(t, dir)
	h1 := New(svc1, nil).Handler()
	word := queryWords(t, svc1, 1)[0]
	body := fmt.Sprintf(`{"algo":"mc","dim":8,"k":3,"words":[%q]}`, word)
	oracle := do(t, h1, http.MethodPost, "/v1/neighbors", body, nil)
	if oracle.Code != http.StatusOK {
		t.Fatalf("oracle: %d %s", oracle.Code, oracle.Body.String())
	}

	// Flip one byte in every persisted binary artifact.
	bins, err := filepath.Glob(filepath.Join(dir, "*.bin"))
	if err != nil || len(bins) == 0 {
		t.Fatalf("no persisted .bin artifacts in %s (err %v)", dir, err)
	}
	for _, bin := range bins {
		raw, err := os.ReadFile(bin)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)-1] ^= 0x40
		if err := os.WriteFile(bin, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Process two: a fresh service over the damaged directory must serve
	// the oracle bytes with no 5xx, quarantining the damage as it goes.
	svc2 := chaosService(t, dir)
	h2 := New(svc2, nil).Handler()
	rr := do(t, h2, http.MethodPost, "/v1/neighbors", body, nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("read over corrupt artifact: %d %s", rr.Code, rr.Body.String())
	}
	if rr.Body.String() != oracle.Body.String() {
		t.Fatal("recovered response differs from the pre-damage oracle")
	}
	if st := svc2.StoreStats(); st.Quarantines == 0 || st.Computes == 0 {
		t.Fatalf("store stats %+v: want the corrupt artifact quarantined and recomputed", st)
	}
	quarantined, _ := filepath.Glob(filepath.Join(dir, "*.quarantined"))
	if len(quarantined) == 0 {
		t.Fatal("no .quarantined file left behind for forensics")
	}

	// Process three: the rewritten .bin is healthy again.
	svc3 := chaosService(t, dir)
	h3 := New(svc3, nil).Handler()
	rr = do(t, h3, http.MethodPost, "/v1/neighbors", body, nil)
	if rr.Code != http.StatusOK || rr.Body.String() != oracle.Body.String() {
		t.Fatalf("post-repair read: %d (bitwise match: %v)", rr.Code, rr.Body.String() == oracle.Body.String())
	}
	if q := svc3.StoreStats().Quarantines; q != 0 {
		t.Fatalf("repaired artifact quarantined again (%d); the rewrite is unsound", q)
	}
	if gobs, _ := filepath.Glob(filepath.Join(dir, "*.gob")); len(gobs) != 0 {
		t.Fatalf("store wrote gob files: %v", gobs)
	}
}
