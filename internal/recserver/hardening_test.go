package recserver

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"socialrec"
	"socialrec/internal/fault"
)

func TestPanicRecoveredAs500AndCounted(t *testing.T) {
	srv, _ := liveServer(t)
	srv.routes.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) {
		panic("handler bug")
	})
	logged := false
	srv.logf = func(format string, args ...any) {
		if strings.Contains(fmt.Sprintf(format, args...), "panic") {
			logged = true
		}
	}
	w, body := do(t, srv, http.MethodGet, "/boom", "")
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler: status %d, want 500", w.Code)
	}
	if body["error"] == "" {
		t.Fatalf("panicking handler: body %v, want error shape", body)
	}
	if !logged {
		t.Fatal("panic was not logged")
	}
	// The process survived; the next request and the counter prove it.
	w, health := do(t, srv, http.MethodGet, "/healthz", "")
	if w.Code != http.StatusOK {
		t.Fatalf("healthz after panic: %d", w.Code)
	}
	if got := health["panics_recovered"].(float64); got != 1 {
		t.Fatalf("panics_recovered = %v, want 1", got)
	}
}

func TestPanicInsideTimeoutHandlerStillRecovered(t *testing.T) {
	_, rec := liveServer(t)
	srv, err := New(Config{Recommender: rec, Logf: t.Logf, HandlerTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	srv.logf = func(string, ...any) {}
	srv.routes.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) {
		panic("bug under deadline")
	})
	w, _ := do(t, srv, http.MethodGet, "/boom", "")
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500 (TimeoutHandler must propagate the panic)", w.Code)
	}
	if srv.panics.Load() != 1 {
		t.Fatalf("panics = %d, want 1", srv.panics.Load())
	}
}

func TestHandlerTimeoutReturns503(t *testing.T) {
	_, rec := liveServer(t)
	srv, err := New(Config{Recommender: rec, Logf: t.Logf, HandlerTimeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	srv.routes.HandleFunc("GET /slow", func(w http.ResponseWriter, r *http.Request) {
		// A well-behaved slow handler observes the deadline's cancellation.
		<-r.Context().Done()
	})
	req := httptest.NewRequest(http.MethodGet, "/slow", nil)
	w := httptest.NewRecorder()
	start := time.Now()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("slow handler: status %d, want 503", w.Code)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v; deadline not enforced", elapsed)
	}
	if !strings.Contains(w.Body.String(), "deadline") {
		t.Fatalf("timeout body %q", w.Body.String())
	}
}

func TestOverloadShedsWith503AndHealthzStaysUp(t *testing.T) {
	_, rec := liveServer(t)
	srv, err := New(Config{Recommender: rec, Logf: t.Logf, MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	srv.routes.HandleFunc("GET /hold", func(http.ResponseWriter, *http.Request) {
		close(entered)
		<-release
	})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		do(t, srv, http.MethodGet, "/hold", "")
	}()
	<-entered

	// The slot is taken: the next request is shed immediately.
	w, body := do(t, srv, http.MethodGet, "/v1/recommend?target=0", "")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("overloaded request: status %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if body["error"] == "" {
		t.Fatalf("shed response body %v", body)
	}
	// /healthz bypasses the gate so operators can always observe state.
	w, health := do(t, srv, http.MethodGet, "/healthz", "")
	if w.Code != http.StatusOK {
		t.Fatalf("healthz under overload: %d", w.Code)
	}
	if got := health["requests_shed"].(float64); got != 1 {
		t.Fatalf("requests_shed = %v, want 1", got)
	}
	close(release)
	wg.Wait()

	// Slot free again: serving resumes.
	if w, _ := do(t, srv, http.MethodGet, "/v1/recommend?target=0", ""); w.Code != http.StatusOK {
		t.Fatalf("request after overload cleared: %d", w.Code)
	}
}

// TestDegradedServingUnderFailpoints is the degrade-don't-die check: with
// the snapshot-persist path failing persistently, mutations and rebuilds
// keep getting accepted, /v1/recommend keeps answering 200 from the last
// good snapshot, and /healthz flips to "degraded" naming the subsystem —
// no 5xx storm, no crash.
func TestDegradedServingUnderFailpoints(t *testing.T) {
	defer fault.Reset()
	g := socialrec.NewGraph(8)
	for i := 0; i < 8; i++ {
		if err := g.AddEdge(i, (i+1)%8); err != nil {
			t.Fatal(err)
		}
	}
	rec, err := socialrec.NewRecommender(g, socialrec.WithSeed(4),
		socialrec.WithRebuildInterval(time.Hour),
		socialrec.WithSnapshotPersist(filepath.Join(t.TempDir(), "g.srsnap")))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rec.Close() })
	srv, err := New(Config{Recommender: rec, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}

	fault.Arm("snapshot.persist", fault.Config{Mode: fault.Error})
	if w, _ := do(t, srv, http.MethodPost, "/v1/edges", `{"from":0,"to":4}`); w.Code != http.StatusCreated {
		t.Fatalf("mutation while persist failing: %d", w.Code)
	}
	if err := rec.Rebuild(); err != nil {
		t.Fatalf("rebuild must succeed despite persist failure: %v", err)
	}

	for target := 0; target < 8; target++ {
		w, _ := do(t, srv, http.MethodGet, fmt.Sprintf("/v1/recommend?target=%d", target), "")
		if w.Code != http.StatusOK {
			t.Fatalf("recommend target %d while degraded: %d", target, w.Code)
		}
	}
	w, health := do(t, srv, http.MethodGet, "/healthz", "")
	if w.Code != http.StatusOK {
		t.Fatalf("healthz while degraded: %d", w.Code)
	}
	if health["status"] != "degraded" {
		t.Fatalf("status = %v, want degraded", health["status"])
	}
	deg, _ := health["degraded"].(map[string]any)
	if deg["snapshot-persist"] == nil {
		t.Fatalf("degraded block %v lacks snapshot-persist", deg)
	}

	// Disk recovers: the next rebuild persists, and health returns to ok.
	fault.Reset()
	if w, _ := do(t, srv, http.MethodPost, "/v1/edges", `{"from":1,"to":5}`); w.Code != http.StatusCreated {
		t.Fatalf("mutation after recovery: %d", w.Code)
	}
	if err := rec.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if _, health := do(t, srv, http.MethodGet, "/healthz", ""); health["status"] != "ok" {
		t.Fatalf("status after recovery = %v, want ok", health["status"])
	}
}
