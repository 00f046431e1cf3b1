package recserver

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"socialrec"
)

// liveServer builds a Server over a live Recommender whose background
// rebuilder is effectively disabled (hour-long debounce), so tests control
// snapshot swaps explicitly via Rebuild.
func liveServer(t *testing.T) (*Server, *socialrec.Recommender) {
	t.Helper()
	g := socialrec.NewGraph(6)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	rec, err := socialrec.NewRecommender(g, socialrec.WithSeed(4),
		socialrec.WithRebuildInterval(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rec.Close() })
	srv, err := New(Config{Recommender: rec, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	return srv, rec
}

func do(t *testing.T, srv http.Handler, method, path, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	var req *http.Request
	if body == "" {
		req = httptest.NewRequest(method, path, nil)
	} else {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	var decoded map[string]any
	if len(w.Body.Bytes()) > 0 {
		if err := json.Unmarshal(w.Body.Bytes(), &decoded); err != nil {
			t.Fatalf("%s %s: invalid JSON %q: %v", method, path, w.Body.String(), err)
		}
	}
	return w, decoded
}

func TestAddEdgeEndpoint(t *testing.T) {
	srv, rec := liveServer(t)
	w, body := do(t, srv, http.MethodPost, "/v1/edges", `{"from":1,"to":4}`)
	if w.Code != http.StatusCreated {
		t.Fatalf("POST /v1/edges = %d %s, want 201", w.Code, w.Body)
	}
	if body["from"].(float64) != 1 || body["to"].(float64) != 4 {
		t.Fatalf("ack body %v", body)
	}
	if body["pending_deltas"].(float64) != 1 {
		t.Fatalf("pending_deltas = %v, want 1", body["pending_deltas"])
	}
	if rec.PendingDeltas() != 1 {
		t.Fatalf("recommender pending = %d, want 1", rec.PendingDeltas())
	}

	// Duplicate, self-loop, range, bad body, and the unversioned path,
	// which is not served.
	if w, _ := do(t, srv, http.MethodPost, "/v1/edges", `{"from":1,"to":4}`); w.Code != http.StatusConflict {
		t.Fatalf("duplicate = %d, want 409", w.Code)
	}
	if w, _ := do(t, srv, http.MethodPost, "/v1/edges", `{"from":2,"to":2}`); w.Code != http.StatusBadRequest {
		t.Fatalf("self loop = %d, want 400", w.Code)
	}
	if w, _ := do(t, srv, http.MethodPost, "/v1/edges", `{"from":2,"to":99}`); w.Code != http.StatusNotFound {
		t.Fatalf("out of range = %d, want 404", w.Code)
	}
	if w, _ := do(t, srv, http.MethodPost, "/v1/edges", `{"frm":2}`); w.Code != http.StatusBadRequest {
		t.Fatalf("bad body = %d, want 400", w.Code)
	}
	w = httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/edges", strings.NewReader(`{"from":1,"to":5}`)))
	if w.Code != http.StatusNotFound {
		t.Fatalf("POST /edges = %d, want 404", w.Code)
	}
}

func TestRemoveEdgeEndpoint(t *testing.T) {
	srv, _ := liveServer(t)
	if w, _ := do(t, srv, http.MethodDelete, "/v1/edges?from=0&to=1", ""); w.Code != http.StatusOK {
		t.Fatalf("DELETE query = %d, want 200", w.Code)
	}
	if w, _ := do(t, srv, http.MethodDelete, "/v1/edges", `{"from":0,"to":2}`); w.Code != http.StatusOK {
		t.Fatalf("DELETE body = %d, want 200", w.Code)
	}
	if w, _ := do(t, srv, http.MethodDelete, "/v1/edges?from=0&to=1", ""); w.Code != http.StatusNotFound {
		t.Fatalf("DELETE missing = %d, want 404", w.Code)
	}
	if w, _ := do(t, srv, http.MethodDelete, "/v1/edges?from=0&to=x", ""); w.Code != http.StatusBadRequest {
		t.Fatalf("DELETE bad query = %d, want 400", w.Code)
	}
}

func TestAddNodeEndpoint(t *testing.T) {
	srv, rec := liveServer(t)
	w, body := do(t, srv, http.MethodPost, "/v1/nodes", "")
	if w.Code != http.StatusCreated {
		t.Fatalf("POST /v1/nodes = %d %s, want 201", w.Code, w.Body)
	}
	if body["node"].(float64) != 6 {
		t.Fatalf("node = %v, want 6", body["node"])
	}
	if g, err := rec.CurrentGraph(); err != nil || g.NumNodes() != 7 {
		t.Fatalf("live graph has %v nodes (err %v), want 7", g.NumNodes(), err)
	}
}

func TestMutationsDisabledWithoutLive(t *testing.T) {
	srv, _, _ := testServer(t, 0)
	for _, c := range []struct{ method, path, body string }{
		{http.MethodPost, "/v1/edges", `{"from":0,"to":1}`},
		{http.MethodDelete, "/v1/edges?from=0&to=1", ""},
		{http.MethodPost, "/v1/nodes", ""},
	} {
		if w, _ := do(t, srv, c.method, c.path, c.body); w.Code != http.StatusNotImplemented {
			t.Fatalf("%s %s on static server = %d, want 501", c.method, c.path, w.Code)
		}
	}
}

func TestHealthReportsLiveStats(t *testing.T) {
	srv, rec := liveServer(t)
	_, body := do(t, srv, http.MethodGet, "/healthz", "")
	if body["snapshot_version"].(float64) != 0 {
		t.Fatalf("snapshot_version = %v, want 0", body["snapshot_version"])
	}
	live, ok := body["live"].(map[string]any)
	if !ok {
		t.Fatalf("healthz missing live block: %v", body)
	}
	if live["pending_deltas"].(float64) != 0 {
		t.Fatalf("pending_deltas = %v, want 0", live["pending_deltas"])
	}

	if w, _ := do(t, srv, http.MethodPost, "/v1/edges", `{"from":1,"to":4}`); w.Code != http.StatusCreated {
		t.Fatalf("POST /edges = %d", w.Code)
	}
	if err := rec.Rebuild(); err != nil {
		t.Fatal(err)
	}
	_, body = do(t, srv, http.MethodGet, "/healthz", "")
	if body["snapshot_version"].(float64) != 1 {
		t.Fatalf("snapshot_version after rebuild = %v, want 1", body["snapshot_version"])
	}
	live = body["live"].(map[string]any)
	if live["rebuilds"].(float64) != 1 || live["pending_deltas"].(float64) != 0 {
		t.Fatalf("live stats after rebuild = %v", live)
	}
	// The folded edge now influences serving: 1-4 exists, so recommending
	// for 0 can surface 4 via common neighbor 1 eventually; at minimum the
	// endpoint keeps working against the new snapshot.
	if w, _ := do(t, srv, http.MethodGet, "/v1/recommend?target=0", ""); w.Code != http.StatusOK {
		t.Fatalf("recommend after rebuild = %d", w.Code)
	}
}
