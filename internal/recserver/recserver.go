// Package recserver exposes a differentially private social recommender
// over HTTP. It is the deployment shell around the socialrec public API:
// JSON endpoints for recommendations, top-k lists, and privacy audits, with
// privacy-budget accounting so that a deployment cannot silently answer
// unlimited queries (differential privacy composes additively; see
// socialrec.Accountant).
//
// Budget accounting: Config.TotalEpsilon caps the deployment-wide spend
// and Config.PerPrincipalEpsilon caps each principal's — the target node,
// i.e. the individual user the paper's per-user ε guarantee is about.
// Either cap alone or both together enable the accountant. A refused
// request gets 429 with two headers: Retry-After (advisory back-off;
// privacy budgets do not replenish on their own, but operators raise
// limits or rotate deployment epochs out of band) and X-Budget-Remaining
// (the refusing scope's leftover ε, clamped at 0). Per-principal refusals
// are independent: one exhausted user never blocks another.
//
// GET /v1/budget reports the global scope — total (0 = uncapped), spent,
// remaining (omitted when uncapped), calls, per_principal_limit, and
// principals (distinct principals charged). GET /v1/budget?target=N
// reports the scope of the principal that target maps to: principal,
// limit, spent, remaining (omitted when uncapped), calls. /healthz carries
// the same global gauges under "budget".
//
// Privacy posture: responses never include utility scores — only node IDs.
// Returning the (non-private) utility of the recommended candidate would
// leak exactly the information the mechanism's noise is protecting. Audit
// endpoints return theoretical quantities (ceilings, floors) that depend on
// the target's own degree and the public ε, plus the mechanism's expected
// accuracy, which is intended for the graph operator, not end users; deploy
// /audit behind operator authentication.
//
// Serving performance: a Recommender built with socialrec.WithCache has a
// utility-vector cache, which memoizes the deterministic pre-noise stage of
// each request (utility vector, candidate list, u_max) per target. This is
// safe under differential privacy because the cached values are pure
// pre-processing over the immutable graph snapshot: the DP noise — the only
// randomized, privacy-bearing part of a recommendation — is drawn fresh on
// every request after the cache lookup, so the mechanism's output
// distribution (and hence its ε guarantee) is identical with and without
// the cache. Cached utilities are raw, non-private values; they live only
// in process memory and are never serialized into any response. Cache
// hit/miss counters are exported on /healthz for monitoring, alongside the
// cumulative retained/invalidated swap counters: a live rebuild carries
// the entries its delta batch provably did not touch across the epoch bump
// instead of flushing the cache, and these gauges show how much of the
// working set each swap preserved.
//
// Deadlines: with Config.HandlerTimeout set, a request runs on its
// connection's goroutine under a context that expires at the deadline.
// /v1/recommend checks it after the draw and answers 503 instead of a late
// recommendation; the draw's ε stays charged. Any handler that returns
// without answering once the deadline has passed gets the same 503. Nothing
// is interrupted mid-stage, and a mutation that completes late reports its
// real status.
//
// Randomness: every recommend request draws its noise from its own
// Recommender.RequestRNG stream, so repeated requests for one target are
// independent draws, each charged as its own release. The cache reuses only
// the pre-noise stage.
//
// Live mutations: when the Recommender is built with live mutations
// (socialrec.WithLiveMutations, recserve -live), the server additionally
// accepts writes — POST /v1/edges, DELETE /v1/edges, POST /v1/nodes —
// which journal deltas into the live graph's log; a background rebuilder
// debounces them into atomic snapshot swaps, so reads never block on
// writes. Mutation responses carry the current snapshot version and
// pending-delta count, and /healthz exports the same as gauges. Applying
// deltas is pre-processing of the next graph snapshot — not perturbation of
// any released output — so each served recommendation keeps its ε
// guarantee with respect to the snapshot that served it; see the socialrec
// live.go commentary.
//
// Like /audit, the write endpoints carry no authentication of their own and
// are strictly more dangerous: anyone who can reach them can rewrite the
// serving graph and grow it without bound. Deploy them behind operator
// authentication (or keep -live off on untrusted networks).
package recserver

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"net/http/pprof"
	"net/url"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"socialrec"
)

// Config assembles a server.
type Config struct {
	// Recommender is the configured private recommender (required).
	Recommender *socialrec.Recommender
	// TotalEpsilon is the global privacy budget; once spent, /recommend
	// returns 429. Zero disables the global cap (NOT recommended; provided
	// for load testing only) — budgeting as a whole is disabled only when
	// PerPrincipalEpsilon is also zero.
	TotalEpsilon float64
	// PerPrincipalEpsilon caps each principal's (per target node)
	// cumulative privacy spend; a principal at its cap gets 429 while
	// every other principal keeps serving. Zero disables per-principal
	// accounting. The paper's composition is per user, so this cap — not
	// the global one — is a deployment's real privacy posture.
	PerPrincipalEpsilon float64
	// MaxK caps top-k list sizes; 0 means 10.
	MaxK int
	// EnablePprof mounts the net/http/pprof handlers under /debug/pprof so
	// hot-path regressions (serving latency, allocation spikes) are
	// diagnosable against a production process. Default off: profiles
	// expose process internals (never raw graph data, but goroutine stacks
	// and heap shapes), so enable only behind operator authentication —
	// like /audit and the write endpoints.
	EnablePprof bool
	// Logf receives request logs; nil means log.Printf.
	Logf func(format string, args ...any)
	// HandlerTimeout is each request's deadline. The handler runs on the
	// connection's own goroutine under a context that is canceled when it
	// elapses; a handler that returns without answering after the deadline
	// passed gets 503, and /v1/recommend answers 503 instead of a draw that
	// finished late. A handler that ignores its context is not cut off
	// early, and a mutation that completes after the deadline reports its
	// real status. Zero disables the deadline (recserve's -request-timeout
	// flag default is 10s).
	HandlerTimeout time.Duration
	// MaxInFlight caps concurrently handled requests. Excess requests are
	// shed immediately with 503 + Retry-After instead of queueing without
	// bound — under overload, fast refusal keeps the server answering
	// (and /healthz, which is exempt, keeps reporting). Zero disables
	// shedding.
	MaxInFlight int
}

// Server handles recommendation requests. Create with New; safe for
// concurrent use.
type Server struct {
	rec    *socialrec.Recommender
	acct   *socialrec.Accountant
	maxK   int
	logf   func(format string, args ...any)
	routes *http.ServeMux
	// timeout is Config.HandlerTimeout; ServeHTTP applies it.
	timeout time.Duration
	// epsJSON is the JSON encoding of the Recommender's ε, which is fixed
	// at construction; /v1/recommend copies it into every answer.
	epsJSON []byte
	// inflight is the load-shedding gate (nil when MaxInFlight is 0):
	// a buffered channel used as a counting semaphore.
	inflight chan struct{}
	// inflightNow gauges requests currently being handled (excluding
	// /healthz), whatever the MaxInFlight setting — operators tune the shed
	// threshold against it via /healthz.
	inflightNow atomic.Int64
	panics      atomic.Uint64
	shed        atomic.Uint64
}

// New validates the config and builds the server.
func New(cfg Config) (*Server, error) {
	if cfg.Recommender == nil {
		return nil, errors.New("recserver: recommender is required")
	}
	epsJSON, err := json.Marshal(cfg.Recommender.Epsilon())
	if err != nil {
		return nil, fmt.Errorf("recserver: encoding epsilon: %w", err)
	}
	s := &Server{
		rec:     cfg.Recommender,
		maxK:    cfg.MaxK,
		logf:    cfg.Logf,
		timeout: cfg.HandlerTimeout,
		epsJSON: epsJSON,
	}
	if s.maxK == 0 {
		s.maxK = 10
	}
	if s.logf == nil {
		s.logf = log.Printf
	}
	if cfg.TotalEpsilon > 0 || cfg.PerPrincipalEpsilon > 0 {
		var opts []socialrec.AccountantOption
		if cfg.PerPrincipalEpsilon > 0 {
			opts = append(opts, socialrec.PerPrincipalBudget(cfg.PerPrincipalEpsilon))
		}
		acct, err := socialrec.NewAccountant(cfg.Recommender, cfg.TotalEpsilon, opts...)
		if err != nil {
			return nil, fmt.Errorf("recserver: %w", err)
		}
		s.acct = acct
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/recommend", s.handleRecommend)
	mux.HandleFunc("GET /v1/audit", s.handleAudit)
	mux.HandleFunc("GET /v1/budget", s.handleBudget)
	// Write path (live mutations). Registered unconditionally and answered
	// with 501 when the Recommender is not live, so clients get a stable
	// error shape instead of a bare 404.
	mux.HandleFunc("POST /v1/edges", s.handleAddEdge)
	mux.HandleFunc("DELETE /v1/edges", s.handleRemoveEdge)
	mux.HandleFunc("POST /v1/nodes", s.handleAddNode)
	if cfg.EnablePprof {
		// Explicit registrations rather than the package's init-time
		// DefaultServeMux side effects, which this mux never serves.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.routes = mux
	if cfg.MaxInFlight > 0 {
		s.inflight = make(chan struct{}, cfg.MaxInFlight)
	}
	return s, nil
}

// ServeHTTP implements http.Handler: panic recovery outermost (a bug in
// one request must never take down the process), then the load-shedding
// gate, then the per-request deadline, then routing. Routing runs on the
// calling goroutine, under the deadline's context when HandlerTimeout is
// set; a handler that returns without writing after the deadline passed
// gets 503.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if v := recover(); v != nil {
			s.panics.Add(1)
			s.logf("recserver: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
			// If the handler already wrote headers this is a logged no-op;
			// either way the connection is not torn down by the panic.
			s.writeError(w, http.StatusInternalServerError, "internal error")
		}
	}()
	if r.URL.Path != "/healthz" {
		if s.inflight != nil {
			select {
			case s.inflight <- struct{}{}:
				defer func() { <-s.inflight }()
			default:
				s.shed.Add(1)
				w.Header().Set("Retry-After", "1")
				s.writeError(w, http.StatusServiceUnavailable, "server overloaded, request shed")
				return
			}
		}
		s.inflightNow.Add(1)
		defer s.inflightNow.Add(-1)
	}
	if s.timeout <= 0 {
		s.routes.ServeHTTP(w, r)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
	defer cancel()
	tw := &trackingWriter{ResponseWriter: w}
	s.routes.ServeHTTP(tw, r.WithContext(ctx))
	if !tw.wrote && errors.Is(ctx.Err(), context.DeadlineExceeded) {
		s.writeDeadlineExceeded(w)
	}
}

// trackingWriter records whether the handler wrote anything, so ServeHTTP
// can answer a handler that gave up at the deadline without writing.
type trackingWriter struct {
	http.ResponseWriter
	wrote bool
}

func (w *trackingWriter) WriteHeader(code int) {
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *trackingWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// Unwrap lets http.ResponseController reach the connection's writer.
func (w *trackingWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (s *Server) writeDeadlineExceeded(w http.ResponseWriter) {
	s.writeError(w, http.StatusServiceUnavailable, "request deadline exceeded")
}

type errorBody struct {
	Error string `json:"error"`
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.logf("recserver: encoding response: %v", err)
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, msg string) {
	s.writeJSON(w, status, errorBody{Error: msg})
}

type healthResponse struct {
	// Status is "ok", or "degraded" when a Recommender subsystem (WAL,
	// snapshot persistence, rebuilds) is persistently failing — the
	// server keeps serving from its last good snapshot either way.
	Status string `json:"status"`
	// Degraded maps failing subsystems to their last error; present only
	// when Status is "degraded".
	Degraded map[string]string `json:"degraded,omitempty"`
	// PanicsRecovered counts handler panics converted to 500s;
	// RequestsShed counts requests refused by the MaxInFlight gate.
	PanicsRecovered uint64 `json:"panics_recovered"`
	RequestsShed    uint64 `json:"requests_shed"`
	// RequestsInflight gauges requests being handled right now (excluding
	// /healthz itself) — the live occupancy the MaxInFlight shed threshold
	// is tuned against.
	RequestsInflight int64 `json:"requests_inflight"`
	// SnapshotVersion is the epoch of the graph snapshot serving reads; it
	// increments on every snapshot rebuild.
	SnapshotVersion uint64 `json:"snapshot_version"`
	// Cache reports utility-vector cache effectiveness; omitted when
	// caching is disabled. Counters are aggregates over raw pre-processing
	// reuse and reveal nothing about individual requests or edges.
	Cache *socialrec.CacheStats `json:"cache,omitempty"`
	// Live reports the streaming-mutation subsystem (pending deltas,
	// rebuild counts); omitted when live mutations are disabled. Like the
	// cache counters these are aggregates over pre-processing and reveal
	// nothing about individual edges.
	Live *socialrec.LiveStats `json:"live,omitempty"`
	// Budget reports the global accounting scope (spend, calls, principal
	// count); omitted when budgeting is disabled. The gauges are
	// deployment-wide aggregates; per-principal spend is only exposed via
	// the explicit /v1/budget?target= query.
	Budget *budgetResponse `json:"budget,omitempty"`
	// StreamPools reports the streaming pipeline's pooled-scratch counters
	// (gets, puts, news per pool). Under steady load news should plateau:
	// a news count that tracks gets means scratch is escaping its request
	// instead of being recycled. Allocation counters only — they reveal
	// nothing about individual requests or edges.
	StreamPools []socialrec.PoolStat `json:"stream_pools,omitempty"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	resp := healthResponse{
		Status:           "ok",
		SnapshotVersion:  s.rec.SnapshotVersion(),
		PanicsRecovered:  s.panics.Load(),
		RequestsShed:     s.shed.Load(),
		RequestsInflight: s.inflightNow.Load(),
	}
	if deg := s.rec.Degraded(); len(deg) > 0 {
		resp.Status = "degraded"
		resp.Degraded = deg
	}
	if st, ok := s.rec.CacheStats(); ok {
		resp.Cache = &st
	}
	if st, ok := s.rec.LiveStats(); ok {
		resp.Live = &st
	}
	if s.acct != nil {
		b := s.globalBudget()
		resp.Budget = &b
	}
	resp.StreamPools = socialrec.StreamPoolStats()
	s.writeJSON(w, http.StatusOK, resp)
}

func targetParam(q url.Values) (int, error) {
	raw := q.Get("target")
	if raw == "" {
		return 0, errors.New("missing ?target parameter")
	}
	target, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("invalid target %q", raw)
	}
	return target, nil
}

// recommendResponse is the shape of a /v1/recommend answer, which
// appendRecommendBody writes without reflection. It deliberately excludes
// utilities; see the package comment.
type recommendResponse struct {
	Target  int     `json:"target"`
	Nodes   []int   `json:"nodes"`
	Epsilon float64 `json:"epsilon_spent"`
}

// jsonContentType is assigned to the header map directly, skipping the
// key canonicalization of Header.Set on the hot path. net/http only reads it.
var jsonContentType = []string{"application/json"}

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	target, err := targetParam(q)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	k := 1
	if raw := q.Get("k"); raw != "" {
		k, err = strconv.Atoi(raw)
		if err != nil || k < 1 {
			s.writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid k %q", raw))
			return
		}
		if k > s.maxK {
			s.writeError(w, http.StatusBadRequest, fmt.Sprintf("k %d exceeds limit %d", k, s.maxK))
			return
		}
	}

	var one [1]socialrec.Recommendation
	var recs []socialrec.Recommendation
	if k == 1 {
		one[0], err = s.recommendOne(target)
		recs = one[:]
	} else {
		recs, err = s.recommendTopK(target, k)
	}
	if err != nil {
		s.writeRecommendError(w, err)
		return
	}
	// The draw is done and its ε charged; a late answer is still withheld.
	if r.Context().Err() != nil {
		s.writeDeadlineExceeded(w)
		return
	}
	var buf [256]byte
	body := appendRecommendBody(buf[:0], target, recs, s.epsJSON)
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(body); err != nil {
		s.logf("recserver: writing response: %v", err)
	}
}

// appendRecommendBody appends the JSON encoding of recommendResponse{target,
// the recs' nodes, ε} with its trailing newline, byte for byte what
// json.Encoder writes; epsJSON is ε already encoded.
func appendRecommendBody(b []byte, target int, recs []socialrec.Recommendation, epsJSON []byte) []byte {
	b = append(b, `{"target":`...)
	b = strconv.AppendInt(b, int64(target), 10)
	b = append(b, `,"nodes":`...)
	if len(recs) == 0 {
		b = append(b, "null"...)
	} else {
		for i, rec := range recs {
			if i == 0 {
				b = append(b, '[')
			} else {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(rec.Node), 10)
		}
		b = append(b, ']')
	}
	b = append(b, `,"epsilon_spent":`...)
	b = append(b, epsJSON...)
	return append(b, "}\n"...)
}

// recommendOne and recommendTopK draw from a per-request RNG stream rather
// than the library's target-keyed stream: Recommend's stream is keyed by
// target, so every repeated request for one target would get the same pick,
// while each request is charged as a separate release and must get its own
// independent noise draw. Streams are split from the seed by a global
// sequence, so a fixed seed plus a fixed request order still reproduces
// byte-for-byte.
func (s *Server) recommendOne(target int) (socialrec.Recommendation, error) {
	rng := s.rec.RequestRNG()
	if s.acct != nil {
		return s.acct.RecommendWithRNG(target, rng)
	}
	return s.rec.RecommendWithRNG(target, rng)
}

func (s *Server) recommendTopK(target, k int) ([]socialrec.Recommendation, error) {
	rng := s.rec.RequestRNG()
	if s.acct != nil {
		return s.acct.RecommendTopKWithRNG(target, k, rng)
	}
	return s.rec.RecommendTopKWithRNG(target, k, rng)
}

// retryAfterSeconds is the advisory Retry-After on budget refusals.
// Privacy budgets never replenish on their own, so there is no honest
// retry time; the header exists so well-behaved clients back off instead
// of hammering an exhausted scope while the operator raises limits or
// rotates the deployment epoch.
const retryAfterSeconds = 3600

func (s *Server) writeRecommendError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, socialrec.ErrBudgetExhausted):
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		msg := "privacy budget exhausted"
		var be *socialrec.BudgetError
		if errors.As(err, &be) {
			w.Header().Set("X-Budget-Remaining", strconv.FormatFloat(be.Remaining(), 'g', -1, 64))
			if be.Principal != "" {
				msg = "privacy budget exhausted for principal " + be.Principal
			}
		}
		s.writeError(w, http.StatusTooManyRequests, msg)
	case errors.Is(err, socialrec.ErrBadTarget):
		s.writeError(w, http.StatusNotFound, "unknown target node")
	case errors.Is(err, socialrec.ErrNoCandidates):
		s.writeError(w, http.StatusUnprocessableEntity, "target has no recommendable candidates")
	default:
		s.logf("recserver: recommend: %v", err)
		s.writeError(w, http.StatusInternalServerError, "internal error")
	}
}

// edgeRequest is the body of POST /v1/edges and (optionally) DELETE
// /v1/edges; DELETE also accepts ?from=&to= query parameters.
type edgeRequest struct {
	From int `json:"from"`
	To   int `json:"to"`
}

// mutationResponse acknowledges a write. SnapshotVersion and PendingDeltas
// tell the client which snapshot generation will first reflect the change:
// the mutation is journaled durably in-process but becomes visible to reads
// only at the next debounced rebuild.
type mutationResponse struct {
	From            *int   `json:"from,omitempty"`
	To              *int   `json:"to,omitempty"`
	Node            *int   `json:"node,omitempty"`
	SnapshotVersion uint64 `json:"snapshot_version"`
	PendingDeltas   int    `json:"pending_deltas"`
}

func (s *Server) writeMutationError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, socialrec.ErrNotLive):
		s.writeError(w, http.StatusNotImplemented, "live mutations disabled (start the server with -live)")
	case errors.Is(err, socialrec.ErrDuplicateEdge):
		s.writeError(w, http.StatusConflict, "edge already present")
	case errors.Is(err, socialrec.ErrMissingEdge):
		s.writeError(w, http.StatusNotFound, "edge not present")
	case errors.Is(err, socialrec.ErrNodeRange):
		s.writeError(w, http.StatusNotFound, "node out of range")
	case errors.Is(err, socialrec.ErrSelfLoop):
		s.writeError(w, http.StatusBadRequest, "self loops are not allowed")
	default:
		s.logf("recserver: mutation: %v", err)
		s.writeError(w, http.StatusInternalServerError, "internal error")
	}
}

// edgeParams decodes an edge mutation from query parameters (?from=&to=)
// or, when absent, from a JSON body.
func (s *Server) edgeParams(r *http.Request) (edgeRequest, error) {
	q := r.URL.Query()
	if q.Has("from") || q.Has("to") {
		from, err := strconv.Atoi(q.Get("from"))
		if err != nil {
			return edgeRequest{}, fmt.Errorf("invalid from %q", q.Get("from"))
		}
		to, err := strconv.Atoi(q.Get("to"))
		if err != nil {
			return edgeRequest{}, fmt.Errorf("invalid to %q", q.Get("to"))
		}
		return edgeRequest{From: from, To: to}, nil
	}
	var req edgeRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return edgeRequest{}, fmt.Errorf("invalid edge body: %v", err)
	}
	return req, nil
}

func (s *Server) ackMutation(w http.ResponseWriter, status int, resp mutationResponse) {
	resp.SnapshotVersion = s.rec.SnapshotVersion()
	resp.PendingDeltas = s.rec.PendingDeltas()
	s.writeJSON(w, status, resp)
}

func (s *Server) handleAddEdge(w http.ResponseWriter, r *http.Request) {
	req, err := s.edgeParams(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := s.rec.AddEdge(req.From, req.To); err != nil {
		s.writeMutationError(w, err)
		return
	}
	s.ackMutation(w, http.StatusCreated, mutationResponse{From: &req.From, To: &req.To})
}

func (s *Server) handleRemoveEdge(w http.ResponseWriter, r *http.Request) {
	req, err := s.edgeParams(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := s.rec.RemoveEdge(req.From, req.To); err != nil {
		s.writeMutationError(w, err)
		return
	}
	s.ackMutation(w, http.StatusOK, mutationResponse{From: &req.From, To: &req.To})
}

func (s *Server) handleAddNode(w http.ResponseWriter, r *http.Request) {
	id, err := s.rec.AddNode()
	if err != nil {
		s.writeMutationError(w, err)
		return
	}
	s.ackMutation(w, http.StatusCreated, mutationResponse{Node: &id})
}

type auditResponse struct {
	Target           int     `json:"target"`
	Epsilon          float64 `json:"epsilon"`
	ExpectedAccuracy float64 `json:"expected_accuracy"`
	AccuracyCeiling  float64 `json:"accuracy_ceiling"`
	EpsilonFloor     float64 `json:"epsilon_floor,omitempty"`
}

func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	target, err := targetParam(r.URL.Query())
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	acc, err := s.rec.ExpectedAccuracy(target)
	if err != nil {
		s.writeRecommendError(w, err)
		return
	}
	ceiling, err := s.rec.AccuracyCeiling(target)
	if err != nil {
		s.writeRecommendError(w, err)
		return
	}
	resp := auditResponse{
		Target:           target,
		Epsilon:          s.rec.Epsilon(),
		ExpectedAccuracy: acc,
		AccuracyCeiling:  ceiling,
	}
	// The audit is theoretical: it consumes no budget (it reveals only the
	// target's own degree structure, which the relaxed privacy definition
	// leaves unprotected, plus public parameters).
	s.writeJSON(w, http.StatusOK, resp)
}

// budgetResponse is the global scope, served on GET /v1/budget and as the
// "budget" gauge block of /healthz. Remaining is a pointer so an uncapped
// scope omits it instead of encoding +Inf (which JSON cannot represent).
type budgetResponse struct {
	Total        float64  `json:"total"` // 0 = uncapped
	Spent        float64  `json:"spent"`
	Remaining    *float64 `json:"remaining,omitempty"`
	Calls        int      `json:"calls"`
	PerPrincipal float64  `json:"per_principal_limit,omitempty"` // 0 = none
	Principals   int      `json:"principals,omitempty"`
}

// principalBudgetResponse is one principal's scope, served on
// GET /v1/budget?target=N.
type principalBudgetResponse struct {
	Target    int      `json:"target"`
	Principal string   `json:"principal"`
	Limit     float64  `json:"limit"` // 0 = uncapped
	Spent     float64  `json:"spent"`
	Remaining *float64 `json:"remaining,omitempty"`
	Calls     int64    `json:"calls"`
}

// finiteOrNil drops the +Inf an uncapped scope reports as "remaining".
func finiteOrNil(v float64) *float64 {
	if math.IsInf(v, 0) {
		return nil
	}
	return &v
}

func (s *Server) globalBudget() budgetResponse {
	return budgetResponse{
		Total:        s.acct.Total(),
		Spent:        s.acct.Spent(),
		Remaining:    finiteOrNil(s.acct.Remaining()),
		Calls:        s.acct.Calls(),
		PerPrincipal: s.acct.PerPrincipalLimit(),
		Principals:   s.acct.Principals(),
	}
}

func (s *Server) handleBudget(w http.ResponseWriter, r *http.Request) {
	if s.acct == nil {
		s.writeError(w, http.StatusNotFound, "budgeting disabled")
		return
	}
	if q := r.URL.Query(); q.Has("target") {
		target, err := targetParam(q)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		st := s.acct.TargetStats(target)
		s.writeJSON(w, http.StatusOK, principalBudgetResponse{
			Target:    target,
			Principal: st.Principal,
			Limit:     st.Limit,
			Spent:     st.Spent,
			Remaining: finiteOrNil(st.Remaining),
			Calls:     st.Calls,
		})
		return
	}
	s.writeJSON(w, http.StatusOK, s.globalBudget())
}
