package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"socialrec"
	"socialrec/internal/recserver"
)

// recserve's defaults for the serving shell.
const (
	handlerTimeout = 10 * time.Second
	maxInFlight    = 256
)

// server is an in-process recserver on a loopback listener.
type server struct {
	rec    *socialrec.Recommender
	srv    *recserver.Server
	hs     *http.Server
	base   string // "http://127.0.0.1:port"
	walDir string
	served chan struct{} // closed when Serve has returned
	// spans, when set, receives the handler span of every request that
	// carries a request-id header; see handlerSpans.
	spans atomic.Pointer[handlerSpans]
}

// reqIDHeader carries a traced request's ID to the handler wrapper.
const reqIDHeader = "X-Bench-Req"

// ServeHTTP times recserver.Server.ServeHTTP when a traced phase is
// running, and otherwise only forwards.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sp := s.spans.Load()
	if sp == nil {
		s.srv.ServeHTTP(w, r)
		return
	}
	id, err := strconv.Atoi(r.Header.Get(reqIDHeader))
	t0 := now()
	s.srv.ServeHTTP(w, r)
	t1 := now()
	if err == nil && id >= 0 && id < len(sp.start) {
		sp.start[id].Store(t0)
		sp.end[id].Store(t1)
	}
}

// handlerSpans holds one traced phase's server-side spans, indexed by
// request ID. Atomics, because the handler goroutines write them and the
// phase's owner reads them after the responses arrive over a socket, an
// ordering the race detector cannot see.
type handlerSpans struct {
	start, end []atomic.Int64
}

func newHandlerSpans(n int) *handlerSpans {
	return &handlerSpans{start: make([]atomic.Int64, n), end: make([]atomic.Int64, n)}
}

// startServer builds the workload's Recommender and server from the
// generated graph and waits for the first answered request. The returned
// duration is the set-up time: from handing the graph to NewRecommender
// (which opens the WAL on live workloads) to the first answer.
func startServer(w workload, in *inputs, workdir string) (*server, time.Duration, error) {
	s := &server{served: make(chan struct{})}
	if w.live {
		dir, err := os.MkdirTemp(workdir, "wal-")
		if err != nil {
			return nil, 0, fmt.Errorf("creating WAL directory: %w", err)
		}
		s.walDir = dir
	}
	start := time.Now()
	rec, err := socialrec.NewRecommender(in.g, w.options(in.seed, s.walDir)...)
	if err != nil {
		s.removeWAL()
		return nil, 0, fmt.Errorf("building recommender: %w", err)
	}
	s.rec = rec
	cfg := recserver.Config{
		Recommender:    rec,
		HandlerTimeout: handlerTimeout,
		MaxInFlight:    maxInFlight,
		Logf:           log.Printf,
	}
	if w.budget {
		cfg.PerPrincipalEpsilon = perPrincipalCap
	}
	if s.srv, err = recserver.New(cfg); err != nil {
		s.close()
		return nil, 0, fmt.Errorf("building server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, 0, fmt.Errorf("listening: %w", err)
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s, ReadHeaderTimeout: handlerTimeout}
	go func() {
		defer close(s.served)
		if err := s.hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("serve: %v", err)
		}
	}()
	cl := newClient(s.base, 1)
	defer cl.close()
	resp, err := cl.hc.Get(s.base + "/v1/recommend?target=" + strconv.Itoa(int(in.eligible[0])))
	if err != nil {
		s.close()
		return nil, 0, fmt.Errorf("first request: %w", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body) // a short read only shows in the status check below
	resp.Body.Close()
	setup := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		s.close()
		return nil, 0, fmt.Errorf("first request: status %d", resp.StatusCode)
	}
	return s, setup, nil
}

// close stops the listener, the Recommender's rebuilder and WAL, and
// removes the WAL directory, waiting for the serve goroutine to end.
func (s *server) close() {
	if s.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := s.hs.Shutdown(ctx); err != nil {
			s.hs.Close()
		}
		cancel()
		<-s.served
	}
	if s.rec != nil {
		if err := s.rec.Close(); err != nil {
			log.Printf("closing recommender: %v", err)
		}
	}
	s.removeWAL()
}

func (s *server) removeWAL() {
	if s.walDir != "" {
		os.RemoveAll(s.walDir)
	}
}

// budgetCalls reads the accountant's admitted-call counter through
// GET /v1/budget; 0 when budgeting is off.
func (s *server) budgetCalls(cl *client) (int64, error) {
	var b struct {
		Calls int64 `json:"calls"`
	}
	status, err := cl.getJSON(s.base+"/v1/budget", &b)
	if err != nil {
		return 0, err
	}
	if status == http.StatusNotFound {
		return 0, nil
	}
	return b.Calls, nil
}

// setupTimes starts the server reps times, keeps the last one running and
// returns it with every set-up time.
func setupTimes(w workload, in *inputs, workdir string, reps int) (*server, []float64, error) {
	var times []float64
	for i := 0; ; i++ {
		s, d, err := startServer(w, in, workdir)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, d.Seconds())
		if i == reps-1 {
			return s, times, nil
		}
		s.close()
	}
}

var epoch = time.Now()

// now is the monotonic time since process start in ns: the clock every
// span and latency uses.
func now() int64 { return int64(time.Since(epoch)) }
