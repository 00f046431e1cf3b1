package recserver

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"socialrec"
)

func testServer(t *testing.T, budget float64) (*Server, *socialrec.Graph, int) {
	t.Helper()
	g, err := socialrec.GenerateSocialGraph(400, 3000, 5)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := socialrec.NewRecommender(g, socialrec.WithEpsilon(1), socialrec.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Recommender:  rec,
		TotalEpsilon: budget,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Find a servable target.
	target := -1
	for v := 0; v < g.NumNodes(); v++ {
		if _, err := rec.ExpectedAccuracy(v); err == nil {
			target = v
			break
		}
	}
	if target < 0 {
		t.Fatal("no servable target")
	}
	return srv, g, target
}

func get(t *testing.T, srv http.Handler, path string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	var body map[string]any
	if len(w.Body.Bytes()) > 0 {
		if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s: invalid JSON %q: %v", path, w.Body.String(), err)
		}
	}
	return w, body
}

func TestHealth(t *testing.T) {
	srv, _, _ := testServer(t, 100)
	w, body := get(t, srv, "/healthz")
	if w.Code != http.StatusOK || body["status"] != "ok" {
		t.Errorf("health = %d %v", w.Code, body)
	}
}

func TestRecommendSingle(t *testing.T) {
	srv, g, target := testServer(t, 100)
	w, body := get(t, srv, "/v1/recommend?target="+itoa(target))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %v", w.Code, body)
	}
	nodes := body["nodes"].([]any)
	if len(nodes) != 1 {
		t.Fatalf("nodes = %v", nodes)
	}
	node := int(nodes[0].(float64))
	if node == target || g.HasEdge(target, node) {
		t.Errorf("recommended self/neighbor %d", node)
	}
	// Privacy posture: no utility fields in the response.
	if _, leaked := body["utility"]; leaked {
		t.Error("response leaks utility")
	}
}

func TestRecommendTopK(t *testing.T) {
	srv, _, target := testServer(t, 100)
	w, body := get(t, srv, "/v1/recommend?target="+itoa(target)+"&k=3")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %v", w.Code, body)
	}
	nodes := body["nodes"].([]any)
	if len(nodes) != 3 {
		t.Errorf("nodes = %v", nodes)
	}
}

func TestRecommendValidation(t *testing.T) {
	srv, _, target := testServer(t, 100)
	cases := []struct {
		path string
		code int
	}{
		{"/v1/recommend", http.StatusBadRequest},
		{"/v1/recommend?target=abc", http.StatusBadRequest},
		{"/v1/recommend?target=999999", http.StatusNotFound},
		{"/v1/recommend?target=" + itoa(target) + "&k=0", http.StatusBadRequest},
		{"/v1/recommend?target=" + itoa(target) + "&k=999", http.StatusBadRequest},
	}
	for _, c := range cases {
		w, _ := get(t, srv, c.path)
		if w.Code != c.code {
			t.Errorf("%s: status %d, want %d", c.path, w.Code, c.code)
		}
	}
}

func TestBudgetEnforcement(t *testing.T) {
	srv, _, target := testServer(t, 2) // two eps=1 calls
	for i := 0; i < 2; i++ {
		w, _ := get(t, srv, "/v1/recommend?target="+itoa(target))
		if w.Code != http.StatusOK {
			t.Fatalf("call %d: status %d", i, w.Code)
		}
	}
	w, body := get(t, srv, "/v1/recommend?target="+itoa(target))
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("exhausted budget: status %d %v", w.Code, body)
	}
	// Budget endpoint reflects the two admitted charges.
	w, body = get(t, srv, "/v1/budget")
	if w.Code != http.StatusOK {
		t.Fatalf("budget: %d", w.Code)
	}
	if body["spent"].(float64) != 2 || body["calls"].(float64) != 2 {
		t.Errorf("budget body %v", body)
	}
}

// perUserServer builds a server with a per-principal cap and returns two
// distinct servable targets.
func perUserServer(t *testing.T, total, perUser float64) (*Server, int, int) {
	t.Helper()
	g, err := socialrec.GenerateSocialGraph(400, 3000, 5)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := socialrec.NewRecommender(g, socialrec.WithEpsilon(1), socialrec.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Recommender:         rec,
		TotalEpsilon:        total,
		PerPrincipalEpsilon: perUser,
		Logf:                t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	var servable []int
	for v := 0; v < g.NumNodes() && len(servable) < 2; v++ {
		if _, err := rec.ExpectedAccuracy(v); err == nil {
			servable = append(servable, v)
		}
	}
	if len(servable) < 2 {
		t.Fatal("need two servable targets")
	}
	return srv, servable[0], servable[1]
}

// TestPerPrincipalBudget429 exercises the per-user cap: the exhausted
// target gets 429 with the throttling headers while another target keeps
// serving — exhaustion is per principal, never deployment-wide.
func TestPerPrincipalBudget429(t *testing.T) {
	srv, hot, cold := perUserServer(t, 0, 2)
	for i := 0; i < 2; i++ {
		if w, _ := get(t, srv, "/v1/recommend?target="+itoa(hot)); w.Code != http.StatusOK {
			t.Fatalf("call %d within per-user budget: %d", i, w.Code)
		}
	}
	w, body := get(t, srv, "/v1/recommend?target="+itoa(hot))
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("exhausted principal: status %d %v", w.Code, body)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("429 missing Retry-After header")
	}
	if got := w.Header().Get("X-Budget-Remaining"); got != "0" {
		t.Errorf("X-Budget-Remaining = %q, want \"0\"", got)
	}
	// Independence: the other principal still serves.
	if w, body := get(t, srv, "/v1/recommend?target="+itoa(cold)); w.Code != http.StatusOK {
		t.Errorf("cold principal refused after hot exhausted: %d %v", w.Code, body)
	}
}

func TestBudgetIntrospectionPerTarget(t *testing.T) {
	srv, hot, cold := perUserServer(t, 0, 5)
	get(t, srv, "/v1/recommend?target="+itoa(hot))
	get(t, srv, "/v1/recommend?target="+itoa(hot))

	w, body := get(t, srv, "/v1/budget?target="+itoa(hot))
	if w.Code != http.StatusOK {
		t.Fatalf("budget introspection: %d %v", w.Code, body)
	}
	if body["principal"] != itoa(hot) || body["limit"].(float64) != 5 ||
		body["spent"].(float64) != 2 || body["remaining"].(float64) != 3 ||
		body["calls"].(float64) != 2 {
		t.Errorf("hot principal budget: %v", body)
	}
	// An unseen target reports its full budget, not an error.
	w, body = get(t, srv, "/v1/budget?target="+itoa(cold))
	if w.Code != http.StatusOK || body["spent"].(float64) != 0 || body["remaining"].(float64) != 5 {
		t.Errorf("unseen principal budget: %d %v", w.Code, body)
	}
	if w, _ := get(t, srv, "/v1/budget?target=abc"); w.Code != http.StatusBadRequest {
		t.Errorf("invalid target: %d", w.Code)
	}
	// Global scope: uncapped total omits "remaining" (it would be +Inf).
	w, body = get(t, srv, "/v1/budget")
	if w.Code != http.StatusOK {
		t.Fatalf("global budget: %d", w.Code)
	}
	if _, present := body["remaining"]; present {
		t.Errorf("uncapped global budget reports remaining: %v", body)
	}
	if body["per_principal_limit"].(float64) != 5 || body["principals"].(float64) != 1 ||
		body["spent"].(float64) != 2 || body["calls"].(float64) != 2 {
		t.Errorf("global budget gauges: %v", body)
	}
}

func TestHealthReportsBudgetGauges(t *testing.T) {
	srv, _, target := testServer(t, 100)
	get(t, srv, "/v1/recommend?target="+itoa(target))
	_, body := get(t, srv, "/healthz")
	gauges, ok := body["budget"].(map[string]any)
	if !ok {
		t.Fatalf("no budget gauges on /healthz: %v", body)
	}
	if gauges["total"].(float64) != 100 || gauges["spent"].(float64) != 1 ||
		gauges["remaining"].(float64) != 99 || gauges["calls"].(float64) != 1 {
		t.Errorf("budget gauges: %v", gauges)
	}
	// No budgeting, no gauges.
	unbudgeted, _, _ := testServer(t, 0)
	if _, body := get(t, unbudgeted, "/healthz"); body["budget"] != nil {
		t.Errorf("unbudgeted server reports budget gauges: %v", body)
	}
}

// TestConcurrentPerPrincipal429 hammers one principal's exhaustion
// boundary from parallel goroutines: exactly cap successes win whatever
// the interleaving, and the other principal's budget is untouched by the
// storm.
func TestConcurrentPerPrincipal429(t *testing.T) {
	srv, hot, cold := perUserServer(t, 0, 3)
	var hotOK, hot429 atomic.Int64
	var wg sync.WaitGroup
	for worker := 0; worker < 8; worker++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				req := httptest.NewRequest(http.MethodGet, "/v1/recommend?target="+itoa(hot), nil)
				w := httptest.NewRecorder()
				srv.ServeHTTP(w, req)
				switch w.Code {
				case http.StatusOK:
					hotOK.Add(1)
				case http.StatusTooManyRequests:
					hot429.Add(1)
				default:
					t.Errorf("hot: status %d", w.Code)
					return
				}
			}
		}()
	}
	wg.Wait()
	if hotOK.Load() != 3 {
		t.Errorf("hot principal: %d successes on a budget of 3", hotOK.Load())
	}
	if hotOK.Load()+hot429.Load() != 80 {
		t.Errorf("hot responses don't add up: %d OK + %d 429", hotOK.Load(), hot429.Load())
	}
	// The cold principal's budget is fully intact after the storm.
	for i := 0; i < 3; i++ {
		if w, body := get(t, srv, "/v1/recommend?target="+itoa(cold)); w.Code != http.StatusOK {
			t.Fatalf("cold call %d after hot exhaustion: %d %v", i, w.Code, body)
		}
	}
}

func TestBudgetDisabled(t *testing.T) {
	srv, _, target := testServer(t, 0)
	for i := 0; i < 5; i++ {
		w, _ := get(t, srv, "/v1/recommend?target="+itoa(target))
		if w.Code != http.StatusOK {
			t.Fatalf("unbudgeted call %d failed: %d", i, w.Code)
		}
	}
	w, _ := get(t, srv, "/v1/budget")
	if w.Code != http.StatusNotFound {
		t.Errorf("budget endpoint with budgeting disabled: %d", w.Code)
	}
}

func TestAudit(t *testing.T) {
	srv, _, target := testServer(t, 100)
	w, body := get(t, srv, "/v1/audit?target="+itoa(target))
	if w.Code != http.StatusOK {
		t.Fatalf("audit: %d %v", w.Code, body)
	}
	acc := body["expected_accuracy"].(float64)
	ceiling := body["accuracy_ceiling"].(float64)
	if acc < 0 || acc > 1 || ceiling < 0 || ceiling > 1 {
		t.Errorf("out-of-range audit values: %v", body)
	}
	if acc > ceiling+1e-9 {
		t.Errorf("mechanism accuracy %g above ceiling %g", acc, ceiling)
	}
	// Audits are free: budget untouched.
	_, budget := get(t, srv, "/v1/budget")
	if budget["spent"].(float64) != 0 {
		t.Errorf("audit consumed budget: %v", budget)
	}
}

func TestAuditBadTarget(t *testing.T) {
	srv, _, _ := testServer(t, 100)
	w, _ := get(t, srv, "/v1/audit?target=-3")
	if w.Code != http.StatusNotFound {
		t.Errorf("status %d", w.Code)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil recommender accepted")
	}
	g, err := socialrec.GenerateSocialGraph(50, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := socialrec.NewRecommender(g, socialrec.WithEpsilon(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Recommender: rec, TotalEpsilon: 1}); err == nil {
		t.Error("budget below per-call epsilon accepted")
	}
}

func TestMethodNotAllowed(t *testing.T) {
	srv, _, target := testServer(t, 100)
	req := httptest.NewRequest(http.MethodPost, "/v1/recommend?target="+itoa(target), nil)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST: status %d", w.Code)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// cachedServerPair builds two servers over the same graph and seed, one
// cached and one not, with budgeting disabled so the hammer below can issue
// unlimited requests.
func cachedServerPair(t *testing.T) (cached, plain *Server, g *socialrec.Graph) {
	t.Helper()
	g, err := socialrec.GenerateSocialGraph(400, 3000, 5)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(cacheSize int) *Server {
		opts := []socialrec.Option{socialrec.WithEpsilon(1), socialrec.WithSeed(2)}
		if cacheSize != 0 {
			opts = append(opts, socialrec.WithCache(cacheSize))
		}
		rec, err := socialrec.NewRecommender(g, opts...)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(Config{Recommender: rec, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	return mk(256), mk(0), g
}

func TestHealthReportsCacheStats(t *testing.T) {
	cached, plain, _ := cachedServerPair(t)
	if _, body := get(t, plain, "/healthz"); body["cache"] != nil {
		t.Errorf("uncached server reports cache stats: %v", body)
	}
	get(t, cached, "/v1/recommend?target=0")
	get(t, cached, "/v1/recommend?target=0")
	_, body := get(t, cached, "/healthz")
	stats, ok := body["cache"].(map[string]any)
	if !ok {
		t.Fatalf("no cache stats on /healthz: %v", body)
	}
	if stats["hits"].(float64)+stats["misses"].(float64) < 2 {
		t.Errorf("cache counters not advancing: %v", stats)
	}
}

// TestConcurrentCachedServer hammers the cached server from parallel
// goroutines under -race and checks every response is well-formed for its
// request: 200 with the right target, the requested node count, and no
// self/neighbor recommendations. Responses draw per-request noise
// (Recommender.RequestRNG), so concurrent bodies are not byte-comparable
// across servers — TestSequentialServersBitIdentical covers that under a
// fixed request order.
func TestConcurrentCachedServer(t *testing.T) {
	cached, plain, g := cachedServerPair(t)
	type spec struct {
		path   string
		target int
		k      int
	}
	specs := make([]spec, 0, 40)
	for target := 0; target < 20; target++ {
		tgt := target % g.NumNodes()
		// Only hammer targets the plain server can actually serve; hopeless
		// targets answer 422 on both servers either way.
		req := httptest.NewRequest(http.MethodGet, "/v1/recommend?target="+itoa(tgt), nil)
		w := httptest.NewRecorder()
		plain.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			continue
		}
		specs = append(specs,
			spec{"/v1/recommend?target=" + itoa(tgt), tgt, 1},
			spec{"/v1/recommend?target=" + itoa(tgt) + "&k=3", tgt, 3},
		)
	}
	if len(specs) == 0 {
		t.Fatal("no servable targets")
	}
	var wg sync.WaitGroup
	errs := make(chan string, 32)
	fail := func(msg string) {
		select {
		case errs <- msg:
		default:
		}
	}
	for worker := 0; worker < 8; worker++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				sp := specs[(worker+i)%len(specs)]
				req := httptest.NewRequest(http.MethodGet, sp.path, nil)
				w := httptest.NewRecorder()
				cached.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					fail(sp.path + ": status " + itoa(w.Code))
					continue
				}
				var body struct {
					Target int   `json:"target"`
					Nodes  []int `json:"nodes"`
				}
				if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
					fail(sp.path + ": bad JSON " + w.Body.String())
					continue
				}
				if body.Target != sp.target || len(body.Nodes) != sp.k {
					fail(sp.path + ": malformed " + w.Body.String())
					continue
				}
				for _, node := range body.Nodes {
					if node == sp.target || g.HasEdge(sp.target, node) {
						fail(sp.path + ": recommended self/neighbor " + itoa(node))
					}
				}
			}
		}(worker)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// TestSequentialServersBitIdentical: per-request RNG streams are split from
// the seed by request order, so two same-seed servers fed the same request
// sequence answer byte-for-byte identically — whatever their cache
// configuration. This is the serving-layer form of the library's
// determinism guarantee: the cache reuses only the pre-noise stage.
func TestSequentialServersBitIdentical(t *testing.T) {
	g, err := socialrec.GenerateSocialGraph(400, 3000, 5)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(cacheSize int) *Server {
		opts := []socialrec.Option{socialrec.WithEpsilon(1), socialrec.WithSeed(2)}
		if cacheSize != 0 {
			opts = append(opts, socialrec.WithCache(cacheSize))
		}
		rec, err := socialrec.NewRecommender(g, opts...)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(Config{Recommender: rec, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	cached, plain := mk(256), mk(0)
	for round := 0; round < 2; round++ { // round 1 hits the cache
		for target := 0; target < 20; target++ {
			for _, suffix := range []string{"", "&k=3"} {
				path := "/v1/recommend?target=" + itoa(target) + suffix
				var bodies [2]string
				for i, srv := range []*Server{cached, plain} {
					req := httptest.NewRequest(http.MethodGet, path, nil)
					w := httptest.NewRecorder()
					srv.ServeHTTP(w, req)
					bodies[i] = w.Body.String()
				}
				if bodies[0] != bodies[1] {
					t.Fatalf("round %d %s: cached %s != plain %s", round, path, bodies[0], bodies[1])
				}
			}
		}
	}
	if st, _ := cached.rec.CacheStats(); st.Hits == 0 {
		t.Fatalf("cached server never hit its cache: %+v", st)
	}
}

// TestHealthReportsInflight: /healthz exposes the requests_inflight gauge,
// which must read 0 from /healthz itself (the health endpoint is excluded
// from the gauge) after traffic has drained.
func TestHealthReportsInflight(t *testing.T) {
	srv, _, target := testServer(t, 100)
	get(t, srv, "/v1/recommend?target="+itoa(target))
	get(t, srv, "/v1/recommend?target="+itoa(target))
	_, body := get(t, srv, "/healthz")
	if inflight, ok := body["requests_inflight"].(float64); !ok || inflight != 0 {
		t.Errorf("requests_inflight = %v, want 0 at idle", body["requests_inflight"])
	}
}

// TestInflightGaugeCountsActiveRequests parks a request inside a handler
// and reads the gauge from /healthz while it is held.
func TestInflightGaugeCountsActiveRequests(t *testing.T) {
	srv, _, target := testServer(t, 100)
	entered := make(chan struct{})
	release := make(chan struct{})
	srv.routes.HandleFunc("GET /slow", func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		w.WriteHeader(http.StatusNoContent)
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		get(t, srv, "/slow")
	}()
	<-entered
	_, body := get(t, srv, "/healthz")
	if got := body["requests_inflight"].(float64); got != 1 {
		t.Errorf("requests_inflight = %v with one parked request, want 1", got)
	}
	close(release)
	<-done
	_, body = get(t, srv, "/healthz")
	if got := body["requests_inflight"].(float64); got != 0 {
		t.Errorf("requests_inflight = %v after drain, want 0", got)
	}
	_ = target
}

// TestBudgetChargedPerConcurrentRequest: concurrent requests for one
// target share the cached pre-noise stage, but every one of them is its
// own privacy release — the accountant must charge once per admitted
// request.
func TestBudgetChargedPerConcurrentRequest(t *testing.T) {
	g, err := socialrec.GenerateSocialGraph(200, 1200, 3)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := socialrec.NewRecommender(g, socialrec.WithEpsilon(1), socialrec.WithSeed(2),
		socialrec.WithCache(socialrec.DefaultCacheSize))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Recommender:  rec,
		TotalEpsilon: 1000,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Pick a servable target.
	target := -1
	for v := 0; v < g.NumNodes(); v++ {
		if _, err := rec.ExpectedAccuracy(v); err == nil {
			target = v
			break
		}
	}
	if target < 0 {
		t.Fatal("no servable target")
	}
	const workers = 16
	var wg sync.WaitGroup
	var ok2xx atomic.Int64
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := httptest.NewRequest(http.MethodGet, "/v1/recommend?target="+itoa(target), nil)
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, req)
			if w.Code == http.StatusOK {
				ok2xx.Add(1)
			}
		}()
	}
	wg.Wait()
	if ok2xx.Load() == 0 {
		t.Fatal("no request succeeded")
	}
	if spent := srv.acct.Spent(); spent != float64(ok2xx.Load()) {
		t.Errorf("spent = %g after %d successful concurrent requests, want %d (one ε per request)",
			spent, ok2xx.Load(), ok2xx.Load())
	}
}

func TestPprofGatedByConfig(t *testing.T) {
	g, err := socialrec.GenerateSocialGraph(50, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := socialrec.NewRecommender(g, socialrec.WithEpsilon(1), socialrec.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, enabled := range []bool{false, true} {
		srv, err := New(Config{Recommender: rec, TotalEpsilon: 10, EnablePprof: enabled, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil)
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if enabled && w.Code != http.StatusOK {
			t.Errorf("pprof enabled: GET /debug/pprof/ = %d, want 200", w.Code)
		}
		if !enabled && w.Code != http.StatusNotFound {
			t.Errorf("pprof disabled (default): GET /debug/pprof/ = %d, want 404", w.Code)
		}
	}
}
