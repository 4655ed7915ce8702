package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"anchor"
)

// tinyConfig keeps HTTP tests at the experiments test scale.
func tinyConfig() anchor.ExperimentConfig {
	cfg := anchor.SmallExperimentConfig()
	cfg.Algorithms = []string{"mc"}
	cfg.Dims = []int{8, 16}
	cfg.Precisions = []int{1, 32}
	cfg.Seeds = []int64{1}
	cfg.SentimentTasks = []string{"sst2"}
	cfg.NEREnabled = false
	return cfg
}

func newTestServer(t *testing.T, opts ...anchor.ServiceOption) (*Server, *anchor.Service) {
	t.Helper()
	svc, err := anchor.NewService(append([]anchor.ServiceOption{anchor.WithConfig(tinyConfig())}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return New(svc, nil), svc
}

// do issues one request against the handler and decodes the JSON reply.
func do(t *testing.T, h http.Handler, method, path, body string, out any) *httptest.ResponseRecorder {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if out != nil && rr.Code == http.StatusOK {
		if err := json.Unmarshal(rr.Body.Bytes(), out); err != nil {
			t.Fatalf("decode %s %s: %v (body %s)", method, path, err, rr.Body.String())
		}
	}
	return rr
}

func errCode(t *testing.T, rr *httptest.ResponseRecorder) string {
	t.Helper()
	var body struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatalf("decode error body %q: %v", rr.Body.String(), err)
	}
	return body.Error.Code
}

func TestHealthz(t *testing.T) {
	srv, _ := newTestServer(t)
	h := srv.Handler()
	var resp struct {
		Status     string   `json:"status"`
		Algorithms []string `json:"algorithms"`
		Tasks      []string `json:"tasks"`
		Measures   []string `json:"measures"`
	}
	rr := do(t, h, http.MethodGet, "/v1/healthz", "", &resp)
	if rr.Code != http.StatusOK || resp.Status != "ok" {
		t.Fatalf("healthz: %d %s", rr.Code, rr.Body.String())
	}
	if len(resp.Algorithms) == 0 || len(resp.Tasks) == 0 || len(resp.Measures) != 5 {
		t.Fatalf("healthz registries: %+v", resp)
	}
	// The counter keys, in order, are the documented healthz surface
	// (docs/HTTP_API.md) that dashboards and servebench read.
	want := map[string][]string{
		"serving": {"in_flight", "max_in_flight", "shed", "timeouts", "panics", "draining"},
		"store":   {"mem_hits", "disk_hits", "computes", "evictions", "persist_errors", "quarantines"},
		"query": {"snapshot_hits", "snapshot_loads", "evictions", "batches", "batched_queries", "retries",
			"resident_bytes", "snapshots"},
	}
	var objects map[string]json.RawMessage
	if err := json.Unmarshal(rr.Body.Bytes(), &objects); err != nil {
		t.Fatal(err)
	}
	for name, keys := range want {
		if got := objectKeys(t, objects[name]); !reflect.DeepEqual(got, keys) {
			t.Fatalf("healthz %s keys = %q, want %q", name, got, keys)
		}
	}
}

// objectKeys returns the keys of the JSON object in raw, in the order
// they appear.
func objectKeys(t *testing.T, raw json.RawMessage) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("not a JSON object: %s", raw)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		var value json.RawMessage
		if err := dec.Decode(&value); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

func TestTrainEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	h := srv.Handler()
	var resp struct {
		Algo   string `json:"algo"`
		Corpus string `json:"corpus"`
		Dim    int    `json:"dim"`
		Rows   int    `json:"rows"`
	}
	rr := do(t, h, http.MethodPost, "/v1/train", `{"algo":"mc","year":2017,"dim":8,"seed":1}`, &resp)
	if rr.Code != http.StatusOK {
		t.Fatalf("train: %d %s", rr.Code, rr.Body.String())
	}
	if resp.Algo != "mc" || resp.Corpus != "wiki17" || resp.Dim != 8 || resp.Rows == 0 {
		t.Fatalf("train response: %+v", resp)
	}

	// Unknown algorithm -> 400 with a structured code.
	rr = do(t, h, http.MethodPost, "/v1/train", `{"algo":"elmo","year":2017,"dim":8}`, nil)
	if rr.Code != http.StatusBadRequest || errCode(t, rr) != "unknown_algorithm" {
		t.Fatalf("unknown algo: %d %s", rr.Code, rr.Body.String())
	}
	// Bad year -> 400.
	rr = do(t, h, http.MethodPost, "/v1/train", `{"algo":"mc","year":1999,"dim":8}`, nil)
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("bad year: %d", rr.Code)
	}
	// Unknown JSON field -> 400.
	rr = do(t, h, http.MethodPost, "/v1/train", `{"algo":"mc","yr":2017}`, nil)
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("typoed field: %d", rr.Code)
	}
	// Anything but whitespace after the request object -> 400: a second
	// JSON value must not be ignored, nor must garbage.
	valid := `{"algo":"mc","year":2017,"dim":8,"seed":1}`
	for _, tail := range []string{`{"algo":"elmo"}`, `garbage`} {
		rr = do(t, h, http.MethodPost, "/v1/train", valid+tail, nil)
		if rr.Code != http.StatusBadRequest || errCode(t, rr) != "invalid_request" {
			t.Fatalf("trailing %q: %d %s", tail, rr.Code, rr.Body.String())
		}
	}
	if rr = do(t, h, http.MethodPost, "/v1/train", valid+" \n", nil); rr.Code != http.StatusOK {
		t.Fatalf("trailing whitespace: %d %s", rr.Code, rr.Body.String())
	}
}

func TestMeasuresEndpointBitwiseEqualsLibrary(t *testing.T) {
	// Server at workers=4, library reference at workers=1: the HTTP
	// response must be bitwise identical to the library path for any
	// worker count (acceptance criterion).
	srv, _ := newTestServer(t, anchor.WithWorkers(4))
	h := srv.Handler()
	var resp anchor.MeasureReport
	rr := do(t, h, http.MethodPost, "/v1/measures", `{"algo":"mc","dim":8,"bits":1,"seed":1}`, &resp)
	if rr.Code != http.StatusOK {
		t.Fatalf("measures: %d %s", rr.Code, rr.Body.String())
	}
	if len(resp.Values) != 5 || resp.MemoryBits != 8 {
		t.Fatalf("measures response: %+v", resp)
	}

	ref, err := anchor.NewService(anchor.WithConfig(tinyConfig()), anchor.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.MeasureCell(context.Background(), "mc", 8, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range want.Values {
		if resp.Values[name] != v {
			t.Fatalf("measure %s over HTTP %v != library %v", name, resp.Values[name], v)
		}
	}

	rr = do(t, h, http.MethodPost, "/v1/measures", `{"algo":"elmo","dim":8}`, nil)
	if rr.Code != http.StatusBadRequest || errCode(t, rr) != "unknown_algorithm" {
		t.Fatalf("unknown algo: %d %s", rr.Code, rr.Body.String())
	}
}

func TestStabilityEndpointBitwiseEqualsLibrary(t *testing.T) {
	srv, _ := newTestServer(t, anchor.WithWorkers(4))
	h := srv.Handler()
	var resp anchor.StabilityReport
	rr := do(t, h, http.MethodPost, "/v1/stability", `{"algo":"mc","task":"sst2","dim":8,"bits":1,"seed":1}`, &resp)
	if rr.Code != http.StatusOK {
		t.Fatalf("stability: %d %s", rr.Code, rr.Body.String())
	}

	ref, err := anchor.NewService(anchor.WithConfig(tinyConfig()), anchor.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Stability(context.Background(), "mc", "sst2", 8, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Disagreement != want.Disagreement || resp.Accuracy != want.Accuracy {
		t.Fatalf("HTTP stability %+v != library %+v", resp, want)
	}

	rr = do(t, h, http.MethodPost, "/v1/stability", `{"algo":"mc","task":"imdb","dim":8}`, nil)
	if rr.Code != http.StatusBadRequest || errCode(t, rr) != "unknown_task" {
		t.Fatalf("unknown task: %d %s", rr.Code, rr.Body.String())
	}
}

func TestSelectEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	h := srv.Handler()
	var resp anchor.SelectReport
	rr := do(t, h, http.MethodPost, "/v1/select",
		`{"algo":"mc","dims":[8,16],"precisions":[1,32],"budget_bits":64}`, &resp)
	if rr.Code != http.StatusOK {
		t.Fatalf("select: %d %s", rr.Code, rr.Body.String())
	}
	if len(resp.Candidates) != 4 || resp.Best == nil || resp.Best.MemoryBits > 64 {
		t.Fatalf("select response: %+v", resp)
	}

	rr = do(t, h, http.MethodPost, "/v1/select", `{"algo":"mc","dims":[8],"precisions":[1],"measure":"vibes"}`, nil)
	if rr.Code != http.StatusBadRequest || errCode(t, rr) != "unknown_measure" {
		t.Fatalf("unknown measure: %d %s", rr.Code, rr.Body.String())
	}
	rr = do(t, h, http.MethodPost, "/v1/select", `{"algo":"mc","dims":[],"precisions":[1]}`, nil)
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("empty grid: %d", rr.Code)
	}
}

// TestCanceledRequestAborts covers the 499-style abort: a request whose
// context is already canceled must not compute anything.
func TestCanceledRequestAborts(t *testing.T) {
	srv, svc := newTestServer(t)
	h := srv.Handler()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct{ path, body string }{
		{"/v1/train", `{"algo":"mc","year":2017,"dim":8}`},
		{"/v1/measures", `{"algo":"mc","dim":8,"bits":1}`},
		{"/v1/stability", `{"algo":"mc","task":"sst2","dim":8,"bits":1}`},
		{"/v1/select", `{"algo":"mc","dims":[8],"precisions":[1]}`},
	} {
		req := httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)).WithContext(ctx)
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		if rr.Code != StatusClientClosedRequest {
			t.Fatalf("%s with canceled ctx = %d, want %d (%s)", tc.path, rr.Code, StatusClientClosedRequest, rr.Body.String())
		}
		if errCode(t, rr) != "client_closed_request" {
			t.Fatalf("%s error code = %s", tc.path, errCode(t, rr))
		}
	}
	if st := svc.StoreStats(); st.Computes != 0 {
		t.Fatalf("canceled requests trained embeddings: %+v", st)
	}
}

// TestSecondRequestServedFromStore asserts the acceptance criterion that
// an identical second request is served from the artifact store.
func TestSecondRequestServedFromStore(t *testing.T) {
	srv, svc := newTestServer(t)
	h := srv.Handler()
	body := `{"algo":"mc","dim":8,"bits":1,"seed":1}`
	if rr := do(t, h, http.MethodPost, "/v1/measures", body, nil); rr.Code != http.StatusOK {
		t.Fatalf("first: %d", rr.Code)
	}
	computes := svc.StoreStats().Computes
	if computes == 0 {
		t.Fatal("first request trained nothing")
	}
	if rr := do(t, h, http.MethodPost, "/v1/measures", body, nil); rr.Code != http.StatusOK {
		t.Fatalf("second: %d", rr.Code)
	}
	if got := svc.StoreStats().Computes; got != computes {
		t.Fatalf("second identical request retrained: %d -> %d", computes, got)
	}
}

// TestConcurrentRequests hammers the server with concurrent identical and
// distinct queries over a real HTTP listener: all must succeed, identical
// queries must produce byte-identical bodies, and (under -race) the
// shared store/runner must be data-race free.
func TestConcurrentRequests(t *testing.T) {
	srv, _ := newTestServer(t, anchor.WithWorkers(2))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(path, body string) ([]byte, int, error) {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			return nil, 0, err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return b, resp.StatusCode, err
	}

	const perKind = 8
	type result struct {
		kind string
		body []byte
	}
	kinds := map[string]string{
		"measures-d8":  `{"algo":"mc","dim":8,"bits":1,"seed":1}`,
		"measures-d16": `{"algo":"mc","dim":16,"bits":1,"seed":1}`,
		"stability-d8": `{"algo":"mc","task":"sst2","dim":8,"bits":1,"seed":1}`,
	}
	paths := map[string]string{
		"measures-d8":  "/v1/measures",
		"measures-d16": "/v1/measures",
		"stability-d8": "/v1/stability",
	}

	var wg sync.WaitGroup
	results := make(chan result, 3*perKind)
	errs := make(chan error, 3*perKind)
	for kind := range kinds {
		for i := 0; i < perKind; i++ {
			wg.Add(1)
			go func(kind string) {
				defer wg.Done()
				body, code, err := post(paths[kind], kinds[kind])
				if err != nil {
					errs <- err
					return
				}
				if code != http.StatusOK {
					errs <- fmt.Errorf("%s: status %d: %s", kind, code, body)
					return
				}
				results <- result{kind, body}
			}(kind)
		}
	}
	wg.Wait()
	close(results)
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	first := map[string][]byte{}
	for res := range results {
		if prev, ok := first[res.kind]; ok {
			if !bytes.Equal(prev, res.body) {
				t.Fatalf("%s: concurrent responses differ:\n%s\nvs\n%s", res.kind, prev, res.body)
			}
		} else {
			first[res.kind] = res.body
		}
	}
	if len(first) != 3 {
		t.Fatalf("missing result kinds: %v", first)
	}
}

func TestUnknownRouteAndMethod(t *testing.T) {
	srv, svc := newTestServer(t)
	h := srv.Handler()
	rr := do(t, h, http.MethodGet, "/v1/nope", "", nil)
	if rr.Code != http.StatusNotFound {
		t.Fatalf("unknown route = %d, want 404", rr.Code)
	}
	// 404s use the structured envelope too.
	if errCode(t, rr) != "not_found" {
		t.Fatalf("404 code = %q (body %s)", errCode(t, rr), rr.Body.String())
	}

	// Every route answers a wrong method with a structured 405 whose
	// Allow header names the right one, and every POST route rejects an
	// unknown field (naming it) and trailing data with a 400.
	for _, rt := range []struct{ path, method string }{
		{"/v1/healthz", http.MethodGet},
		{"/v1/livez", http.MethodGet},
		{"/v1/readyz", http.MethodGet},
		{"/v1/vectors", http.MethodGet},
		{"/v1/neighbors", http.MethodPost},
		{"/v1/neighbors/delta", http.MethodPost},
		{"/v1/train", http.MethodPost},
		{"/v1/measures", http.MethodPost},
		{"/v1/stability", http.MethodPost},
		{"/v1/select", http.MethodPost},
	} {
		wrong := http.MethodPost
		if rt.method == http.MethodPost {
			wrong = http.MethodGet
		}
		rr := do(t, h, wrong, rt.path, "", nil)
		if rr.Code != http.StatusMethodNotAllowed || errCode(t, rr) != "method_not_allowed" ||
			rr.Header().Get("Allow") != rt.method {
			t.Fatalf("%s %s: %d Allow=%q %s", wrong, rt.path, rr.Code, rr.Header().Get("Allow"), rr.Body.String())
		}
		if rt.method != http.MethodPost {
			continue
		}
		rr = do(t, h, http.MethodPost, rt.path, `{"bogus":1}`, nil)
		if rr.Code != http.StatusBadRequest || errCode(t, rr) != "invalid_request" ||
			!strings.Contains(rr.Body.String(), `unknown field \"bogus\"`) {
			t.Fatalf("%s unknown field: %d %s", rt.path, rr.Code, rr.Body.String())
		}
		rr = do(t, h, http.MethodPost, rt.path, `{} {}`, nil)
		if rr.Code != http.StatusBadRequest || errCode(t, rr) != "invalid_request" {
			t.Fatalf("%s trailing data: %d %s", rt.path, rr.Code, rr.Body.String())
		}
	}

	// A delta always compares 2017 with 2018, so it has no year field.
	rr = do(t, h, http.MethodPost, "/v1/neighbors/delta",
		`{"algo":"mc","words":["the"],"dim":8,"k":5,"year":2017,"seed":1}`, nil)
	if rr.Code != http.StatusBadRequest || errCode(t, rr) != "invalid_request" ||
		!strings.Contains(rr.Body.String(), `unknown field \"year\"`) {
		t.Fatalf("delta with year: %d %s", rr.Code, rr.Body.String())
	}
	if st := svc.StoreStats(); st.Computes != 0 {
		t.Fatalf("a rejected request trained: %+v", st)
	}
}

// queryWords returns real vocabulary words from the tiny config's corpus
// by training the smallest snapshot once (served from the store for every
// later request in the same test).
func queryWords(t *testing.T, svc *anchor.Service, n int) []string {
	t.Helper()
	e, err := svc.Train(context.Background(), "mc", 2017, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Words) < n {
		t.Fatalf("vocab too small: %d < %d", len(e.Words), n)
	}
	words := make([]string, n)
	for i := range words {
		words[i] = e.Words[(i*17)%len(e.Words)]
	}
	return words
}

func TestVectorsEndpoint(t *testing.T) {
	srv, svc := newTestServer(t)
	h := srv.Handler()
	words := queryWords(t, svc, 2)
	var resp anchor.VectorsReport
	rr := do(t, h, http.MethodGet,
		"/v1/vectors?algo=mc&dim=8&year=2017&seed=1&words="+words[0]+","+words[1], "", &resp)
	if rr.Code != http.StatusOK {
		t.Fatalf("vectors: %d %s", rr.Code, rr.Body.String())
	}
	if len(resp.Vectors) != 2 || len(resp.Vectors[0].Vector) != 8 {
		t.Fatalf("vectors response: %+v", resp)
	}
	// The served vector must be bitwise the trained embedding's row.
	e, err := svc.Train(context.Background(), "mc", 2017, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range resp.Vectors {
		for j, x := range v.Vector {
			if x != e.Vector(v.ID)[j] {
				t.Fatalf("vector %s differs from trained row", v.Word)
			}
		}
	}

	// Out-of-vocabulary word -> 404 with the structured envelope.
	rr = do(t, h, http.MethodGet, "/v1/vectors?algo=mc&dim=8&words=notaword", "", nil)
	if rr.Code != http.StatusNotFound || errCode(t, rr) != "unknown_word" {
		t.Fatalf("unknown word: %d %s", rr.Code, rr.Body.String())
	}
	// Unknown algorithm stays 400.
	rr = do(t, h, http.MethodGet, "/v1/vectors?algo=elmo&dim=8&words="+words[0], "", nil)
	if rr.Code != http.StatusBadRequest || errCode(t, rr) != "unknown_algorithm" {
		t.Fatalf("unknown algo: %d %s", rr.Code, rr.Body.String())
	}
	// Malformed numbers -> 400.
	rr = do(t, h, http.MethodGet, "/v1/vectors?algo=mc&dim=eight&words="+words[0], "", nil)
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("bad dim: %d", rr.Code)
	}
	// Missing words -> 400.
	rr = do(t, h, http.MethodGet, "/v1/vectors?algo=mc&dim=8", "", nil)
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("no words: %d", rr.Code)
	}
	if rr := do(t, h, http.MethodPost, "/v1/vectors", "", nil); rr.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST vectors = %d, want 405", rr.Code)
	}
}

// TestNeighborsEndpointBitwise is the read-path acceptance criterion:
// POST /v1/neighbors returns bitwise-identical neighbor lists for
// workers=1 vs workers=N and for serial vs concurrent requests, exercised
// over a real listener (and under -race in CI).
func TestNeighborsEndpointBitwise(t *testing.T) {
	// Reference: one worker, one request at a time.
	refSrv, refSvc := newTestServer(t, anchor.WithWorkers(1))
	words := queryWords(t, refSvc, 12)
	refH := refSrv.Handler()

	body := func(word string) string {
		return fmt.Sprintf(`{"algo":"mc","words":[%q],"dim":8,"k":5,"year":2017,"seed":1}`, word)
	}
	want := map[string][]byte{}
	for _, w := range words {
		rr := do(t, refH, http.MethodPost, "/v1/neighbors", body(w), nil)
		if rr.Code != http.StatusOK {
			t.Fatalf("reference %s: %d %s", w, rr.Code, rr.Body.String())
		}
		want[w] = append([]byte(nil), rr.Body.Bytes()...)
	}

	// Subject: many workers, serving the concurrent burst below.
	srv, svc := newTestServer(t, anchor.WithWorkers(4))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const rounds = 4
	var wg sync.WaitGroup
	type result struct {
		word string
		body []byte
	}
	results := make(chan result, rounds*len(words))
	errs := make(chan error, rounds*len(words))
	for r := 0; r < rounds; r++ {
		for _, w := range words {
			wg.Add(1)
			go func(w string) {
				defer wg.Done()
				resp, err := http.Post(ts.URL+"/v1/neighbors", "application/json", strings.NewReader(body(w)))
				if err != nil {
					errs <- err
					return
				}
				defer resp.Body.Close()
				b, err := io.ReadAll(resp.Body)
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s: status %d: %s", w, resp.StatusCode, b)
					return
				}
				results <- result{w, b}
			}(w)
		}
	}
	wg.Wait()
	close(results)
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	got := 0
	for res := range results {
		got++
		if !bytes.Equal(res.body, want[res.word]) {
			t.Fatalf("word %s: concurrent workers=4 response differs from serial workers=1:\n%s\nvs\n%s",
				res.word, res.body, want[res.word])
		}
	}
	if got != rounds*len(words) {
		t.Fatalf("got %d results, want %d", got, rounds*len(words))
	}
	// No request waited for company: each was scored as its own block.
	if st := svc.QueryStats(); st.Batches != st.BatchedQueries {
		t.Fatalf("%d blocks for %d single-word queries, want one block each", st.Batches, st.BatchedQueries)
	}

	// Multi-word requests answer as one block, bitwise equal again.
	multi := fmt.Sprintf(`{"algo":"mc","words":[%q,%q],"dim":8,"k":5,"year":2017,"seed":1}`, words[0], words[1])
	var multiResp, refMulti anchor.NeighborsReport
	if rr := do(t, srv.Handler(), http.MethodPost, "/v1/neighbors", multi, &multiResp); rr.Code != http.StatusOK {
		t.Fatalf("multi: %d %s", rr.Code, rr.Body.String())
	}
	if rr := do(t, refH, http.MethodPost, "/v1/neighbors", multi, &refMulti); rr.Code != http.StatusOK {
		t.Fatalf("ref multi: %d %s", rr.Code, rr.Body.String())
	}
	if !reflect.DeepEqual(multiResp, refMulti) {
		t.Fatalf("multi-word response differs:\n%+v\nvs\n%+v", multiResp, refMulti)
	}

	// A second JSON value after the request object -> 400.
	rr := do(t, refH, http.MethodPost, "/v1/neighbors", body(words[0])+`{"k":1}`, nil)
	if rr.Code != http.StatusBadRequest || errCode(t, rr) != "invalid_request" {
		t.Fatalf("trailing data: %d %s", rr.Code, rr.Body.String())
	}

	// ann and nprobe are not request fields: like any unknown field, 400.
	for _, field := range []string{`"ann":true`, `"nprobe":4`} {
		b := fmt.Sprintf(`{"algo":"mc","words":[%q],"dim":8,"k":5,"year":2017,"seed":1,%s}`, words[0], field)
		rr := do(t, refH, http.MethodPost, "/v1/neighbors", b, nil)
		if rr.Code != http.StatusBadRequest || errCode(t, rr) != "invalid_request" {
			t.Fatalf("%s: %d %s", field, rr.Code, rr.Body.String())
		}
	}
}

func TestNeighborDeltaEndpoint(t *testing.T) {
	srv, svc := newTestServer(t)
	h := srv.Handler()
	words := queryWords(t, svc, 3)
	body := fmt.Sprintf(`{"algo":"mc","words":[%q,%q,%q],"dim":8,"k":5,"seed":1}`, words[0], words[1], words[2])
	var resp anchor.NeighborDeltaReport
	rr := do(t, h, http.MethodPost, "/v1/neighbors/delta", body, &resp)
	if rr.Code != http.StatusOK {
		t.Fatalf("delta: %d %s", rr.Code, rr.Body.String())
	}
	if len(resp.Results) != 3 || resp.K != 5 {
		t.Fatalf("delta response: %+v", resp)
	}
	mean := 0.0
	for i, d := range resp.Results {
		if d.Word != words[i] {
			t.Fatalf("delta %d word %q, want %q", i, d.Word, words[i])
		}
		if len(d.A) != 5 || len(d.B) != 5 {
			t.Fatalf("delta %s lists %d/%d, want 5/5", d.Word, len(d.A), len(d.B))
		}
		if d.Overlap < 0 || d.Overlap > 1 {
			t.Fatalf("delta %s overlap %v out of range", d.Word, d.Overlap)
		}
		mean += d.Overlap
	}
	if want := mean / 3; resp.MeanOverlap != want {
		t.Fatalf("mean overlap %v, want %v", resp.MeanOverlap, want)
	}

	rr = do(t, h, http.MethodPost, "/v1/neighbors/delta", `{"algo":"mc","words":["x"],"dim":8,"k":0,"seed":1}`, nil)
	if rr.Code != http.StatusNotFound {
		t.Fatalf("oov delta word: %d %s", rr.Code, rr.Body.String())
	}
	rr = do(t, h, http.MethodPost, "/v1/neighbors/delta", `{"algo":"mc","words":[],"dim":8}`, nil)
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("empty words: %d", rr.Code)
	}
	// ann and nprobe are not request fields: like any unknown field, 400.
	for _, field := range []string{`"ann":true`, `"nprobe":4`} {
		b := fmt.Sprintf(`{"algo":"mc","words":[%q],"dim":8,"k":5,"seed":1,%s}`, words[0], field)
		rr := do(t, h, http.MethodPost, "/v1/neighbors/delta", b, nil)
		if rr.Code != http.StatusBadRequest || errCode(t, rr) != "invalid_request" {
			t.Fatalf("%s: %d %s", field, rr.Code, rr.Body.String())
		}
	}
}

// rejectsRemovedANNFields posts body (a request object without its
// closing brace) to path on a fresh server with each removed
// approximate-mode field set to its exact-mode value. Each must be a 400
// invalid_request naming the field, and nothing may be trained.
func rejectsRemovedANNFields(t *testing.T, path, body string) {
	t.Helper()
	srv, svc := newTestServer(t)
	for _, f := range []struct{ name, value string }{{"ann", "false"}, {"nprobe", "0"}} {
		rr := do(t, srv.Handler(), http.MethodPost, path, fmt.Sprintf(`%s,%q:%s}`, body, f.name, f.value), nil)
		if rr.Code != http.StatusBadRequest || errCode(t, rr) != "invalid_request" ||
			!strings.Contains(rr.Body.String(), `unknown field \"`+f.name+`\"`) {
			t.Fatalf("%s with %s: %d %s", path, f.name, rr.Code, rr.Body.String())
		}
	}
	if st := svc.StoreStats(); st.Computes != 0 {
		t.Fatalf("a rejected request trained: %+v", st)
	}
}

// TestNeighborsEndpointANN: /v1/neighbors has one exact mode; a request
// still sending ann or nprobe is rejected before any work.
func TestNeighborsEndpointANN(t *testing.T) {
	rejectsRemovedANNFields(t, "/v1/neighbors", `{"algo":"mc","words":["the"],"dim":8,"k":5,"year":2017,"seed":1`)
}

// TestNeighborDeltaEndpointANN: the same for /v1/neighbors/delta.
func TestNeighborDeltaEndpointANN(t *testing.T) {
	rejectsRemovedANNFields(t, "/v1/neighbors/delta", `{"algo":"mc","words":["the"],"dim":8,"k":5,"seed":1`)
}
