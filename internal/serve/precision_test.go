package serve

import (
	"fmt"
	"math"
	"net/http"
	"testing"

	"anchor"
)

// TestQuantizedNeighborsEndpointBitwiseEqualsLibrary: a quantized
// artifact served over HTTP must answer bitwise identically to the
// library path — same neighbor ids and Float64-bit-identical scores —
// even when the HTTP service runs more workers than the library
// reference.
func TestQuantizedNeighborsEndpointBitwiseEqualsLibrary(t *testing.T) {
	refSvc, err := anchor.NewService(anchor.WithConfig(tinyConfig()), anchor.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	srv, _ := newTestServer(t, anchor.WithWorkers(4))
	h := srv.Handler()
	words := queryWords(t, refSvc, 8)
	ctx := t.Context()

	for _, bits := range []int{1, 8, 16} {
		want, err := refSvc.Neighbors(ctx, "mc", 8, words,
			anchor.QueryK(5), anchor.QueryPrecision(bits))
		if err != nil {
			t.Fatal(err)
		}
		body := fmt.Sprintf(`{"algo":"mc","words":["%s","%s","%s","%s","%s","%s","%s","%s"],"dim":8,"k":5,"bits":%d,"seed":1}`,
			words[0], words[1], words[2], words[3], words[4], words[5], words[6], words[7], bits)
		var got anchor.NeighborsReport
		if rr := do(t, h, http.MethodPost, "/v1/neighbors", body, &got); rr.Code != http.StatusOK {
			t.Fatalf("bits=%d: %d %s", bits, rr.Code, rr.Body.String())
		}
		if got.Bits != bits {
			t.Fatalf("response bits %d, want %d", got.Bits, bits)
		}
		for i, r := range got.Results {
			for j, n := range r.Neighbors {
				ref := want.Results[i].Neighbors[j]
				if n.ID != ref.ID || math.Float64bits(n.Score) != math.Float64bits(ref.Score) {
					t.Fatalf("bits=%d word %s neighbor %d: HTTP (%d, %x) vs library (%d, %x)",
						bits, r.Word, j, n.ID, math.Float64bits(n.Score), ref.ID, math.Float64bits(ref.Score))
				}
			}
		}
	}

	// The vectors GET surface takes bits too, and returns the quantized
	// rows the library returns.
	wantV, err := refSvc.Query(ctx, "mc", 8, words[:2], anchor.QueryPrecision(8))
	if err != nil {
		t.Fatal(err)
	}
	var gotV anchor.VectorsReport
	path := fmt.Sprintf("/v1/vectors?algo=mc&dim=8&bits=8&words=%s,%s", words[0], words[1])
	if rr := do(t, h, http.MethodGet, path, "", &gotV); rr.Code != http.StatusOK {
		t.Fatalf("vectors: %d %s", rr.Code, rr.Body.String())
	}
	if gotV.Bits != 8 {
		t.Fatalf("vectors response bits %d, want 8", gotV.Bits)
	}
	for i, v := range gotV.Vectors {
		for j, x := range v.Vector {
			if math.Float64bits(x) != math.Float64bits(wantV.Vectors[i].Vector[j]) {
				t.Fatalf("vector %s[%d] differs from library path", v.Word, j)
			}
		}
	}
}

// TestHealthzReportsResidentSnapshots: after quantized and full-precision
// queries, /v1/healthz lists each resident snapshot with its precision
// mode, bits, and byte footprint.
func TestHealthzReportsResidentSnapshots(t *testing.T) {
	srv, svc := newTestServer(t)
	h := srv.Handler()
	words := queryWords(t, svc, 2)

	for _, bits := range []int{0, 8, 16} {
		body := fmt.Sprintf(`{"algo":"mc","words":["%s"],"dim":8,"k":3,"bits":%d}`, words[0], bits)
		if rr := do(t, h, http.MethodPost, "/v1/neighbors", body, nil); rr.Code != http.StatusOK {
			t.Fatalf("bits=%d: %d %s", bits, rr.Code, rr.Body.String())
		}
	}

	var resp struct {
		Query struct {
			ResidentBytes int64                 `json:"resident_bytes"`
			Snapshots     []anchor.SnapshotInfo `json:"snapshots"`
		} `json:"query"`
	}
	if rr := do(t, h, http.MethodGet, "/v1/healthz", "", &resp); rr.Code != http.StatusOK {
		t.Fatalf("healthz: %d %s", rr.Code, rr.Body.String())
	}
	modes := map[string]anchor.SnapshotInfo{}
	var total int64
	for _, in := range resp.Query.Snapshots {
		modes[in.Mode] = in
		total += in.Bytes
	}
	if in, ok := modes["codes"]; !ok || in.Bits != 8 {
		t.Fatalf("no 8-bit codes snapshot in healthz: %+v", resp.Query.Snapshots)
	}
	if in, ok := modes["float32"]; !ok || in.Bits != 16 {
		t.Fatalf("no 16-bit float32 snapshot in healthz: %+v", resp.Query.Snapshots)
	}
	if in, ok := modes["float64"]; !ok || in.Bits != 32 {
		t.Fatalf("no full-precision snapshot in healthz: %+v", resp.Query.Snapshots)
	}
	if resp.Query.ResidentBytes != total || total <= 0 {
		t.Fatalf("resident_bytes %d inconsistent with snapshot sum %d", resp.Query.ResidentBytes, total)
	}
	// At this test's tiny dim=8 the shared word index dominates both
	// footprints; the >= 4x matrix-bytes guarantee at serving dims is
	// pinned in internal/query. Here just check codes are clearly smaller.
	if modes["codes"].Bytes*2 > modes["float64"].Bytes {
		t.Fatalf("codes snapshot %d bytes vs float64 %d: want >= 2x smaller",
			modes["codes"].Bytes, modes["float64"].Bytes)
	}
}

// TestServingBudgetEndToEnd: with a serving budget, a dim-0 HTTP query is
// answered from the auto-selected cell and healthz advertises the budget.
func TestServingBudgetEndToEnd(t *testing.T) {
	srv, svc := newTestServer(t, anchor.WithServingBudget(16))
	h := srv.Handler()
	words := queryWords(t, svc, 1)

	body := fmt.Sprintf(`{"algo":"mc","words":["%s"],"k":3}`, words[0])
	var got anchor.NeighborsReport
	if rr := do(t, h, http.MethodPost, "/v1/neighbors", body, &got); rr.Code != http.StatusOK {
		t.Fatalf("budget query: %d %s", rr.Code, rr.Body.String())
	}
	if got.Dim <= 0 || got.Bits <= 0 || got.Dim*got.Bits > 16 {
		t.Fatalf("auto-selected cell d=%d b=%d violates budget 16", got.Dim, got.Bits)
	}
	var resp struct {
		ServingBudgetBits int `json:"serving_budget_bits"`
	}
	if rr := do(t, h, http.MethodGet, "/v1/healthz", "", &resp); rr.Code != http.StatusOK {
		t.Fatalf("healthz: %d %s", rr.Code, rr.Body.String())
	}
	if resp.ServingBudgetBits != 16 {
		t.Fatalf("healthz serving_budget_bits = %d, want 16", resp.ServingBudgetBits)
	}
}
