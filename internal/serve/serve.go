// Package serve exposes the anchor Service over HTTP as a JSON API — the
// selection service the paper argues for, as a traffic-serving surface:
// given an embedding configuration (or a whole candidate grid), answer
// stability queries cheaply from measures and the artifact store instead
// of retraining downstream models.
//
// Endpoints (all under /v1, JSON in/out; see docs/HTTP_API.md for the
// full request/response reference):
//
//	GET  /v1/healthz          health detail + registry, store, and query stats
//	GET  /v1/livez            liveness probe (200 while the process serves)
//	GET  /v1/readyz           readiness probe (503 when draining/saturated)
//	GET  /v1/vectors          word vector lookup in one snapshot
//	POST /v1/neighbors        k nearest neighbors in one snapshot
//	POST /v1/neighbors/delta  neighbor overlap between the two snapshots
//	POST /v1/train            train (or fetch) one embedding snapshot
//	POST /v1/measures         every distance measure at one grid cell
//	POST /v1/stability        true downstream disagreement for one cell
//	POST /v1/select           rank a dim x precision grid under a budget
//
// Requests are handled concurrently over one shared Service; the artifact
// store's singleflight guarantees concurrent identical queries train at
// most once, and determinism guarantees responses are bitwise identical
// to the library path for any worker count. Each /v1/neighbors request
// is scored as one query block the moment it arrives. Each request is
// scoped to its connection's context, so a dropped client cancels its
// computation at the next stage boundary (reported as 499 in logs,
// nginx-style).
//
// Every API endpoint runs behind the serving middleware (see route):
// panic recovery (a panicking handler yields a structured 500 and the
// process keeps serving), admission control (WithMaxInFlight bounds
// concurrent requests; excess load is shed with 429 + Retry-After), and
// per-endpoint deadlines (WithReadTimeout/WithComputeTimeout; a request
// that outlives its deadline gets 503 + Retry-After). The probes bypass
// admission and deadlines so they answer even under full load. None of
// this touches answer bytes: degradation changes availability, never
// answers — a request that succeeds is bitwise identical to one served
// by an idle process (enforced by the chaos suite in chaos_test.go).
//
// Errors are structured: {"error": {"code": "...", "message": "..."}}
// with 400 for malformed or unknown-name requests, 404 for unknown
// routes and out-of-vocabulary words, 405 for wrong methods, 429 for
// shed load, 503 for server-side deadline expiry or a draining/saturated
// readiness probe, and 500 for internal failures.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"anchor"
	"anchor/internal/faults"
	"anchor/internal/query"
	"anchor/internal/store"
)

// Fault-injection sites on the request path (see internal/faults): inert
// in production, armed by seeded plans in chaos tests.
var (
	sitePanic   = faults.Register("serve/panic")
	siteLatency = faults.Register("serve/latency")
)

// errDeadline is the cause installed by the per-endpoint deadline, so
// fail can tell a server-imposed timeout (503, retryable) from a client
// hanging up (499).
var errDeadline = errors.New("serve: per-endpoint deadline exceeded")

// StatusClientClosedRequest is the nginx convention for "client canceled
// the request before the response was ready".
const StatusClientClosedRequest = 499

// Server wraps one Service as an http.Handler.
type Server struct {
	svc *anchor.Service
	log *log.Logger

	maxInFlight    int
	readTimeout    time.Duration
	computeTimeout time.Duration
	sem            chan struct{} // nil = unbounded admission

	draining atomic.Bool
	inFlight atomic.Int64

	shed, timeouts, panics atomic.Int64
}

// ServerOption configures New.
type ServerOption func(*Server)

// WithMaxInFlight bounds the number of API requests executing at once
// (probes are exempt). Arrivals beyond the bound are shed immediately
// with 429 + Retry-After instead of queueing — under overload the server
// answers fast with "try later" rather than slowly with everything.
// n <= 0 (the default) disables admission control.
func WithMaxInFlight(n int) ServerOption {
	return func(s *Server) { s.maxInFlight = n }
}

// WithReadTimeout sets the per-request deadline for the read-path
// endpoints (vectors, neighbors, neighbors/delta). A request that
// outlives it is answered 503 + Retry-After. 0 (the default) disables
// the deadline.
func WithReadTimeout(d time.Duration) ServerOption {
	return func(s *Server) { s.readTimeout = d }
}

// WithComputeTimeout sets the per-request deadline for the compute
// endpoints (train, measures, stability, select), which may train
// embeddings and downstream models. 0 (the default) disables it.
func WithComputeTimeout(d time.Duration) ServerOption {
	return func(s *Server) { s.computeTimeout = d }
}

// New returns a Server over svc. logger may be nil to disable logging.
func New(svc *anchor.Service, logger *log.Logger, opts ...ServerOption) *Server {
	s := &Server{svc: svc, log: logger}
	for _, opt := range opts {
		opt(s)
	}
	if s.maxInFlight > 0 {
		s.sem = make(chan struct{}, s.maxInFlight)
	}
	return s
}

// SetDraining flips the readiness signal: a draining server answers 503
// on /v1/readyz (so load balancers stop routing to it) while continuing
// to serve everything else. Call before http.Server.Shutdown for a
// connection-preserving rolling restart.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Handler returns the routed handler for the /v1 API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	// Probes and health detail bypass admission and deadlines: they must
	// answer precisely when the server is saturated.
	mux.HandleFunc("/v1/healthz", s.protect(s.handleHealthz))
	mux.HandleFunc("/v1/livez", s.protect(s.handleLivez))
	mux.HandleFunc("/v1/readyz", s.protect(s.handleReadyz))
	mux.HandleFunc("/v1/vectors", s.route(s.readTimeout, s.handleVectors))
	mux.HandleFunc("/v1/neighbors", s.route(s.readTimeout, s.handleNeighbors))
	mux.HandleFunc("/v1/neighbors/delta", s.route(s.readTimeout, s.handleNeighborDelta))
	mux.HandleFunc("/v1/train", s.route(s.computeTimeout, s.handleTrain))
	mux.HandleFunc("/v1/measures", s.route(s.computeTimeout, s.handleMeasures))
	mux.HandleFunc("/v1/stability", s.route(s.computeTimeout, s.handleStability))
	mux.HandleFunc("/v1/select", s.route(s.computeTimeout, s.handleSelect))
	// Unknown routes get the structured envelope too, not the mux's
	// plain-text default.
	mux.HandleFunc("/", s.protect(func(w http.ResponseWriter, r *http.Request) {
		s.writeError(w, http.StatusNotFound, "not_found",
			fmt.Sprintf("no route %s (see docs/HTTP_API.md for the /v1 endpoints)", r.URL.Path))
	}))
	return mux
}

// trackingWriter remembers whether the response has started, so the
// panic recovery knows whether a structured 500 can still be written.
type trackingWriter struct {
	http.ResponseWriter
	wrote bool
}

func (t *trackingWriter) WriteHeader(code int) {
	t.wrote = true
	t.ResponseWriter.WriteHeader(code)
}

func (t *trackingWriter) Write(b []byte) (int, error) {
	t.wrote = true
	return t.ResponseWriter.Write(b)
}

// protect wraps h with panic recovery only: a panicking handler becomes
// a structured 500 (when the response has not started) and the process
// keeps serving — one poisoned request must never take down the tier.
func (s *Server) protect(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tw := &trackingWriter{ResponseWriter: w}
		defer func() {
			if v := recover(); v != nil {
				s.panics.Add(1)
				s.logf("serve: panic on %s %s: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
				if !tw.wrote {
					s.writeError(tw, http.StatusInternalServerError, "internal_panic",
						fmt.Sprintf("request handler panicked: %v", v))
				}
			}
		}()
		h(tw, r)
	}
}

// route wraps an API handler with the full serving middleware: panic
// recovery, admission control (shed with 429 when the bounded in-flight
// set is full), and the per-endpoint deadline (503 via fail when it
// expires). Shedding and deadlines bound work, not answers: any request
// that completes returns exactly the bytes an unloaded server returns.
func (s *Server) route(timeout time.Duration, h http.HandlerFunc) http.HandlerFunc {
	return s.protect(func(w http.ResponseWriter, r *http.Request) {
		if s.sem != nil {
			select {
			case s.sem <- struct{}{}:
				defer func() { <-s.sem }()
			default:
				s.shed.Add(1)
				w.Header().Set("Retry-After", "1")
				s.writeError(w, http.StatusTooManyRequests, "overloaded",
					fmt.Sprintf("in-flight request limit (%d) reached; retry shortly", s.maxInFlight))
				return
			}
		}
		s.inFlight.Add(1)
		defer s.inFlight.Add(-1)
		if timeout > 0 {
			ctx, cancel := context.WithTimeoutCause(r.Context(), timeout, errDeadline)
			defer cancel()
			r = r.WithContext(ctx)
		}
		// Injected faults land inside the admission slot and under the
		// endpoint deadline, like real handler slowness and bugs would.
		faults.Sleep(r.Context(), siteLatency)
		faults.Crash(sitePanic)
		h(w, r)
	})
}

// errorBody is the structured error envelope.
type errorBody struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

func (s *Server) logf(format string, args ...any) {
	if s.log != nil {
		s.log.Printf(format, args...)
	}
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.logf("serve: encode response: %v", err)
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, code, message string) {
	var body errorBody
	body.Error.Code = code
	body.Error.Message = message
	s.writeJSON(w, status, body)
}

// fail maps a service error onto the structured error space: unknown
// names and invalid parameters are the client's fault (400), a word
// missing from a snapshot's vocabulary is an absent resource (404), a
// server-imposed per-endpoint deadline is retryable overload (503 +
// Retry-After), a canceled request context is the client hanging up
// (499, nginx convention), and everything else is ours (500).
func (s *Server) fail(w http.ResponseWriter, r *http.Request, err error) {
	var unk *anchor.UnknownNameError
	var inv *anchor.InvalidRequestError
	var uw *anchor.UnknownWordError
	switch {
	case errors.As(err, &unk):
		s.writeError(w, http.StatusBadRequest, "unknown_"+unk.Kind, unk.Error())
	case errors.As(err, &uw):
		// The request is well-formed; the word just does not exist in the
		// snapshot's vocabulary.
		s.writeError(w, http.StatusNotFound, "unknown_word", uw.Error())
	case errors.As(err, &inv):
		s.writeError(w, http.StatusBadRequest, "invalid_request", err.Error())
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		if errors.Is(context.Cause(r.Context()), errDeadline) {
			// Our deadline, not the client's cancellation: the request was
			// healthy but too slow right now. Retryable.
			s.timeouts.Add(1)
			s.logf("serve: %s %s exceeded its deadline", r.Method, r.URL.Path)
			w.Header().Set("Retry-After", "1")
			s.writeError(w, http.StatusServiceUnavailable, "deadline_exceeded",
				"request exceeded the server's per-endpoint deadline; retry shortly")
			return
		}
		// The client is gone; the status is for logs and tests.
		s.logf("serve: %s %s canceled", r.Method, r.URL.Path)
		s.writeError(w, StatusClientClosedRequest, "client_closed_request", err.Error())
	default:
		s.logf("serve: %s %s failed: %v", r.Method, r.URL.Path, err)
		s.writeError(w, http.StatusInternalServerError, "internal", err.Error())
	}
}

// decodePost admits only POST and parses a JSON body holding exactly one
// object into v, rejecting unknown fields and anything but whitespace
// after the object, so typos and concatenated payloads fail loudly
// instead of silently selecting defaults. It writes the 405 or 400
// itself and reports whether the handler should go on.
func (s *Server) decodePost(w http.ResponseWriter, r *http.Request, v any) bool {
	if !s.requireMethod(w, r, http.MethodPost) {
		return false
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		s.writeError(w, http.StatusBadRequest, "invalid_request", "invalid JSON body: "+err.Error())
		return false
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		s.writeError(w, http.StatusBadRequest, "invalid_request",
			"invalid JSON body: trailing data after the request object")
		return false
	}
	return true
}

func (s *Server) requireMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		w.Header().Set("Allow", method)
		s.writeError(w, http.StatusMethodNotAllowed, "method_not_allowed",
			fmt.Sprintf("%s requires %s", r.URL.Path, method))
		return false
	}
	return true
}

// healthzResponse reports liveness plus what is plugged in and how the
// middleware, the artifact store and the query engine are doing. The
// store and query counters are their packages' own Stats, whose JSON
// tags are the healthz keys.
type healthzResponse struct {
	Status     string   `json:"status"`
	Algorithms []string `json:"algorithms"`
	Tasks      []string `json:"tasks"`
	Measures   []string `json:"measures"`
	// Serving reports the fault-tolerance middleware's view of traffic:
	// current and maximum in-flight requests, shed/timed-out/panicked
	// request counts, and whether the server is draining.
	Serving struct {
		InFlight    int64 `json:"in_flight"`
		MaxInFlight int   `json:"max_in_flight"`
		Shed        int64 `json:"shed"`
		Timeouts    int64 `json:"timeouts"`
		Panics      int64 `json:"panics"`
		Draining    bool  `json:"draining"`
	} `json:"serving"`
	Store store.Stats `json:"store"`
	Query struct {
		query.Stats
		// ResidentBytes totals the bytes pinned by resident snapshots.
		ResidentBytes int64 `json:"resident_bytes"`
		// Snapshots lists the resident snapshots (most recently used
		// first) with their precision mode and footprint.
		Snapshots []anchor.SnapshotInfo `json:"snapshots"`
	} `json:"query"`
	// ServingBudgetBits is the serving-memory budget (dim*bits) used to
	// auto-select cells for dim-0 queries; 0 when disabled.
	ServingBudgetBits int `json:"serving_budget_bits,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, http.MethodGet) {
		return
	}
	resp := healthzResponse{
		Status:            "ok",
		Algorithms:        s.svc.Algorithms(),
		Tasks:             s.svc.Tasks(),
		Measures:          s.svc.Measures(),
		Store:             s.svc.StoreStats(),
		ServingBudgetBits: s.svc.ServingBudget(),
	}
	resp.Serving.InFlight = s.inFlight.Load()
	resp.Serving.MaxInFlight = s.maxInFlight
	resp.Serving.Shed = s.shed.Load()
	resp.Serving.Timeouts = s.timeouts.Load()
	resp.Serving.Panics = s.panics.Load()
	resp.Serving.Draining = s.draining.Load()
	resp.Query.Stats = s.svc.QueryStats()
	resp.Query.Snapshots = s.svc.ResidentSnapshots()
	for _, in := range resp.Query.Snapshots {
		resp.Query.ResidentBytes += in.Bytes
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleLivez is the liveness probe: 200 for as long as the process can
// execute a handler at all. Panic recovery keeps this true through
// poisoned requests; only a dead process fails it.
func (s *Server) handleLivez(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, http.MethodGet) {
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is the readiness probe: 503 while the server is draining
// for shutdown or its admission queue is saturated — the signal for load
// balancers to route elsewhere — and 200 otherwise. Liveness and
// readiness are split on purpose: an overloaded server is alive (don't
// restart it) but not ready (don't send it more).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, http.MethodGet) {
		return
	}
	if s.draining.Load() {
		s.writeError(w, http.StatusServiceUnavailable, "draining", "server is draining before shutdown")
		return
	}
	if s.sem != nil && len(s.sem) >= cap(s.sem) {
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusServiceUnavailable, "overloaded",
			fmt.Sprintf("all %d in-flight slots busy", s.maxInFlight))
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// trainRequest asks for one embedding snapshot.
type trainRequest struct {
	Algo string `json:"algo"`
	Year int    `json:"year"`
	Dim  int    `json:"dim"`
	Seed int64  `json:"seed"`
	// ReturnVectors includes the full matrix in the response (row-major);
	// by default only provenance and shape are returned.
	ReturnVectors bool `json:"return_vectors"`
}

type trainResponse struct {
	Algo      string    `json:"algo"`
	Corpus    string    `json:"corpus"`
	Dim       int       `json:"dim"`
	Seed      int64     `json:"seed"`
	Precision int       `json:"bits"`
	Rows      int       `json:"rows"`
	Vectors   []float64 `json:"vectors,omitempty"`
}

func (s *Server) handleTrain(w http.ResponseWriter, r *http.Request) {
	var req trainRequest
	if !s.decodePost(w, r, &req) {
		return
	}
	if req.Year == 0 {
		req.Year = 2017
	}
	e, err := s.svc.Train(r.Context(), req.Algo, req.Year, req.Dim, req.Seed)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	resp := trainResponse{
		Algo: e.Meta.Algorithm, Corpus: e.Meta.Corpus,
		Dim: e.Dim(), Seed: e.Meta.Seed, Precision: e.Meta.Precision,
		Rows: e.Rows(),
	}
	if req.ReturnVectors {
		resp.Vectors = e.Vectors.Data
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// cellRequest identifies one grid cell.
type cellRequest struct {
	Algo string `json:"algo"`
	Dim  int    `json:"dim"`
	Bits int    `json:"bits"`
	Seed int64  `json:"seed"`
}

func (s *Server) handleMeasures(w http.ResponseWriter, r *http.Request) {
	var req cellRequest
	if !s.decodePost(w, r, &req) {
		return
	}
	rep, err := s.svc.MeasureCell(r.Context(), req.Algo, req.Dim, req.Bits, req.Seed)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	s.writeJSON(w, http.StatusOK, rep)
}

// stabilityRequest identifies one grid cell and a downstream task.
type stabilityRequest struct {
	Algo string `json:"algo"`
	Task string `json:"task"`
	Dim  int    `json:"dim"`
	Bits int    `json:"bits"`
	Seed int64  `json:"seed"`
}

func (s *Server) handleStability(w http.ResponseWriter, r *http.Request) {
	var req stabilityRequest
	if !s.decodePost(w, r, &req) {
		return
	}
	rep, err := s.svc.Stability(r.Context(), req.Algo, req.Task, req.Dim, req.Bits, req.Seed)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	s.writeJSON(w, http.StatusOK, rep)
}

// handleVectors is GET /v1/vectors: word vector lookup in one snapshot.
// Parameters come from the query string (it is a read), words
// comma-separated: /v1/vectors?algo=cbow&dim=64&words=king,queen.
func (s *Server) handleVectors(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, http.MethodGet) {
		return
	}
	q := r.URL.Query()
	var bad string
	num := func(name string, bitSize int) int64 {
		v := q.Get(name)
		if v == "" {
			return 0
		}
		n, err := strconv.ParseInt(v, 10, bitSize)
		if err != nil && bad == "" {
			bad = fmt.Sprintf("bad %s %q", name, v)
		}
		return n
	}
	req := anchor.QueryRequest{
		Algo: q.Get("algo"),
		Year: int(num("year", strconv.IntSize)),
		Dim:  int(num("dim", strconv.IntSize)),
		Bits: int(num("bits", strconv.IntSize)),
		Seed: num("seed", 64),
	}
	if bad != "" {
		s.writeError(w, http.StatusBadRequest, "invalid_request", bad)
		return
	}
	for _, part := range strings.Split(q.Get("words"), ",") {
		if part = strings.TrimSpace(part); part != "" {
			req.Words = append(req.Words, part)
		}
	}
	rep, err := s.svc.Query(r.Context(), req)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	s.writeJSON(w, http.StatusOK, rep)
}

func (s *Server) handleNeighbors(w http.ResponseWriter, r *http.Request) {
	var req anchor.QueryRequest
	if !s.decodePost(w, r, &req) {
		return
	}
	rep, err := s.svc.Neighbors(r.Context(), req)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	s.writeJSON(w, http.StatusOK, rep)
}

func (s *Server) handleNeighborDelta(w http.ResponseWriter, r *http.Request) {
	var req anchor.DeltaRequest
	if !s.decodePost(w, r, &req) {
		return
	}
	rep, err := s.svc.NeighborDelta(r.Context(), req)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	s.writeJSON(w, http.StatusOK, rep)
}

func (s *Server) handleSelect(w http.ResponseWriter, r *http.Request) {
	var req anchor.SelectRequest
	if !s.decodePost(w, r, &req) {
		return
	}
	rep, err := s.svc.Select(r.Context(), req)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	s.writeJSON(w, http.StatusOK, rep)
}
