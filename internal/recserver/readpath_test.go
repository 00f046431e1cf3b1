package recserver

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"socialrec"
)

// TestRecommendBodyMatchesEncoder pins /v1/recommend's hand-built body to
// what json.Encoder writes for recommendResponse over the same answer. The
// oracle is a second Recommender with the same graph and seed, drawing with
// the same per-request RNG stream the server's draw used.
func TestRecommendBodyMatchesEncoder(t *testing.T) {
	g, err := socialrec.GenerateSocialGraph(400, 3000, 5)
	if err != nil {
		t.Fatal(err)
	}
	const maxK = 12
	// 1e-7 takes encoding/json's exponent format; the others its decimal one.
	for _, eps := range []float64{1, 0.1, 1e-7, 3} {
		mk := func() *socialrec.Recommender {
			rec, err := socialrec.NewRecommender(g, socialrec.WithEpsilon(eps), socialrec.WithSeed(2))
			if err != nil {
				t.Fatal(err)
			}
			return rec
		}
		served, oracle := mk(), mk()
		srv, err := New(Config{Recommender: served, MaxK: maxK, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		for target := 0; target < 10; target++ {
			for _, k := range []int{1, 3, maxK} {
				path := "/v1/recommend?target=" + strconv.Itoa(target) + "&k=" + strconv.Itoa(k)
				w := httptest.NewRecorder()
				srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))

				rng := oracle.RequestRNG()
				var nodes []int
				var err error
				if k == 1 {
					var r socialrec.Recommendation
					if r, err = oracle.RecommendWithRNG(target, rng); err == nil {
						nodes = []int{r.Node}
					}
				} else {
					var rs []socialrec.Recommendation
					rs, err = oracle.RecommendTopKWithRNG(target, k, rng)
					for _, r := range rs {
						nodes = append(nodes, r.Node)
					}
				}
				if err != nil {
					if w.Code == http.StatusOK {
						t.Fatalf("ε=%g %s: served 200 %q, oracle error %v", eps, path, w.Body.String(), err)
					}
					continue
				}
				var want bytes.Buffer
				if err := json.NewEncoder(&want).Encode(recommendResponse{Target: target, Nodes: nodes, Epsilon: eps}); err != nil {
					t.Fatal(err)
				}
				if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), want.Bytes()) {
					t.Fatalf("ε=%g %s: status %d body %q, want 200 %q", eps, path, w.Code, w.Body.String(), want.String())
				}
				if got := w.Header().Values("Content-Type"); len(got) != 1 || got[0] != "application/json" {
					t.Fatalf("ε=%g %s: Content-Type %q", eps, path, got)
				}
				checked++
			}
		}
		if checked < 20 {
			t.Fatalf("ε=%g: only %d answers compared", eps, checked)
		}
	}

	// An empty list encodes as null, as json.Encoder writes a nil slice.
	epsJSON, _ := json.Marshal(0.5)
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(recommendResponse{Target: -3, Epsilon: 0.5}); err != nil {
		t.Fatal(err)
	}
	if got := appendRecommendBody(nil, -3, nil, epsJSON); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("empty answer %q, want %q", got, want.String())
	}
}

// TestRecommendPastDeadlineAnswers503: a draw that finishes after the
// request's deadline is withheld; the answer is the deadline 503, never 200.
func TestRecommendPastDeadlineAnswers503(t *testing.T) {
	g, err := socialrec.GenerateSocialGraph(400, 3000, 5)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := socialrec.NewRecommender(g, socialrec.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Recommender: rec, HandlerTimeout: time.Nanosecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"error":"request deadline exceeded"}` + "\n"
	for target := 0; target < 20; target++ {
		for _, k := range []string{"1", "3"} {
			path := "/v1/recommend?target=" + strconv.Itoa(target) + "&k=" + k
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
			if w.Code == http.StatusOK {
				t.Fatalf("%s: answered 200 past its deadline: %q", path, w.Body.String())
			}
			// Targets without candidates answer 422 before the check.
			if w.Code == http.StatusUnprocessableEntity {
				continue
			}
			if w.Code != http.StatusServiceUnavailable || w.Body.String() != want {
				t.Fatalf("%s: status %d body %q, want 503 %q", path, w.Code, w.Body.String(), want)
			}
		}
	}
}

// TestLateWriteKeepsItsStatus: the deadline cancels the handler's context
// but does not replace an answer the handler goes on to write, so a
// mutation that completes late reports what actually happened. The
// handler's writer still reaches the connection's through
// http.ResponseController.
func TestLateWriteKeepsItsStatus(t *testing.T) {
	_, rec := liveServer(t)
	srv, err := New(Config{Recommender: rec, Logf: t.Logf, HandlerTimeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var flushErr error
	srv.routes.HandleFunc("POST /late", func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
		w.WriteHeader(http.StatusCreated)
		flushErr = http.NewResponseController(w).Flush()
	})
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/late", nil))
	if w.Code != http.StatusCreated {
		t.Fatalf("late write: status %d body %q, want 201", w.Code, w.Body.String())
	}
	if flushErr != nil || !w.Flushed {
		t.Fatalf("flush through the deadline writer: err %v, flushed %v", flushErr, w.Flushed)
	}
}

// discardWriter is the least a ResponseWriter can be: one reused header
// map, and writes that go nowhere.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }

// servingServer is the serving configuration the allocation pin and the
// benchmark measure: cached exponential draws, a per-principal budget that
// never runs out, and a 10 s deadline. It returns a servable target.
func servingServer(tb testing.TB) (*Server, int) {
	tb.Helper()
	g, err := socialrec.GenerateSocialGraph(400, 3000, 5)
	if err != nil {
		tb.Fatal(err)
	}
	rec, err := socialrec.NewRecommender(g, socialrec.WithSeed(2), socialrec.WithCache(64))
	if err != nil {
		tb.Fatal(err)
	}
	srv, err := New(Config{
		Recommender:         rec,
		PerPrincipalEpsilon: 1e12,
		HandlerTimeout:      10 * time.Second,
		Logf:                tb.Logf,
	})
	if err != nil {
		tb.Fatal(err)
	}
	for v := 0; v < g.NumNodes(); v++ {
		if _, err := rec.ExpectedAccuracy(v); err == nil {
			return srv, v
		}
	}
	tb.Fatal("no servable target")
	return nil, 0
}

// recommendAllocsPin is the steady-state allocation count of one cached
// k=1 /v1/recommend through ServeHTTP under a deadline.
const recommendAllocsPin = 14

func TestRecommendHandlerSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	srv, target := servingServer(t)
	req := httptest.NewRequest(http.MethodGet, "/v1/recommend?target="+strconv.Itoa(target), nil)
	w := &discardWriter{h: make(http.Header)}
	serve := func() {
		w.code = 0
		srv.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			t.Fatalf("status %d", w.code)
		}
	}
	serve() // fill the cache entry
	if got := testing.AllocsPerRun(500, serve); got > recommendAllocsPin {
		t.Fatalf("cached /v1/recommend: %.1f allocs/op, pinned at %d", got, recommendAllocsPin)
	}
}

func BenchmarkServeRecommend(b *testing.B) {
	for _, k := range []int{1, 10} {
		b.Run("k="+strconv.Itoa(k), func(b *testing.B) {
			srv, target := servingServer(b)
			req := httptest.NewRequest(http.MethodGet,
				"/v1/recommend?target="+strconv.Itoa(target)+"&k="+strconv.Itoa(k), nil)
			w := &discardWriter{h: make(http.Header)}
			srv.ServeHTTP(w, req)
			if w.code != http.StatusOK {
				b.Fatalf("status %d", w.code)
			}
			b.ReportAllocs()
			for b.Loop() {
				srv.ServeHTTP(w, req)
			}
		})
	}
}
