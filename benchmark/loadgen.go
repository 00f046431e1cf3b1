package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// client is an HTTP client limited to conns keep-alive connections.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) getJSON(url string, v any) (int, error) {
	resp, err := c.hc.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, v); err != nil {
			return 0, fmt.Errorf("decoding %s: %w", url, err)
		}
	}
	return resp.StatusCode, nil
}

// phase is one run of a schedule and everything recorded about each of
// its requests. Slot i belongs to request i; a worker writes only the
// slots of the requests it executes, and the phase's owner reads them
// after the workers have finished.
type phase struct {
	reqs []request
	// open marks an open-loop phase, whose latencies run from due time.
	open bool
	// id0 is the request ID of slot 0 in a traced phase (sent in
	// reqIDHeader); -1 when untraced.
	id0 int
	// start is the phase start on the now() clock.
	start int64
	// send and end are now() timestamps of the request leaving and the
	// response being fully read; status 0 is a transport error.
	send, end []int64
	status    []int16
	// queued marks open-loop requests that found no free connection at
	// their due time; their lateness is queueing, not generator slack.
	queued []bool
	// nodes[i*topK : i*topK+nn[i]] is a read's answer.
	nodes      []int32
	nn         []uint8
	respTarget []int32
	epsSpent   []float64
	// pending is a write acknowledgement's pending-delta count.
	pending []int32
	// backlogMax is the most due-but-unsent requests seen (open loop).
	backlogMax int
	elapsed    time.Duration
	done       int // requests executed; a closed loop skips the tail
}

func newPhase(reqs []request, open bool) *phase {
	n := len(reqs)
	return &phase{
		reqs: reqs, open: open, id0: -1,
		send: make([]int64, n), end: make([]int64, n), status: make([]int16, n),
		queued: make([]bool, n), nodes: make([]int32, n*topK), nn: make([]uint8, n),
		respTarget: make([]int32, n), epsSpent: make([]float64, n), pending: make([]int32, n),
	}
}

// ran reports whether request i was executed.
func (p *phase) ran(i int) bool { return p.end[i] != 0 }

// due returns request i's due time on the now() clock.
func (p *phase) due(i int) int64 { return p.start + int64(p.reqs[i].due) }

// latency is request i's latency: from due time in an open loop, from
// send in a closed one.
func (p *phase) latency(i int) int64 {
	if p.open {
		return p.end[i] - p.due(i)
	}
	return p.end[i] - p.send[i]
}

// worker is one connection's reusable request state.
type worker struct {
	cl   *client
	url  []byte
	body bytes.Buffer
	read struct {
		Target  int     `json:"target"`
		Nodes   []int32 `json:"nodes"`
		Epsilon float64 `json:"epsilon_spent"`
	}
	ack struct {
		PendingDeltas int32 `json:"pending_deltas"`
	}
}

func (w *worker) do(p *phase, i int) {
	r := p.reqs[i]
	w.url = append(w.url[:0], w.cl.base...)
	method := http.MethodGet
	if r.isWrite() {
		method = http.MethodPost
		w.url = append(w.url, "/v1/edges?from="...)
		w.url = strconv.AppendInt(w.url, int64(r.from), 10)
		w.url = append(w.url, "&to="...)
		w.url = strconv.AppendInt(w.url, int64(r.to), 10)
	} else {
		w.url = append(w.url, "/v1/recommend?target="...)
		w.url = strconv.AppendInt(w.url, int64(r.target), 10)
		if r.k != 1 {
			w.url = append(w.url, "&k="...)
			w.url = strconv.AppendInt(w.url, int64(r.k), 10)
		}
	}
	req, err := http.NewRequest(method, string(w.url), nil)
	if err != nil {
		p.send[i], p.end[i] = now(), now()
		return
	}
	if p.id0 >= 0 {
		req.Header.Set(reqIDHeader, strconv.Itoa(p.id0+i))
	}
	p.send[i] = now()
	resp, err := w.cl.hc.Do(req)
	if err != nil {
		p.end[i] = now()
		return
	}
	w.body.Reset()
	_, err = w.body.ReadFrom(resp.Body)
	resp.Body.Close()
	p.end[i] = now()
	if err != nil {
		return
	}
	p.status[i] = int16(resp.StatusCode)
	switch {
	case r.isWrite() && resp.StatusCode == http.StatusCreated:
		w.ack.PendingDeltas = 0
		if json.Unmarshal(w.body.Bytes(), &w.ack) != nil {
			p.status[i] = -1
		}
		p.pending[i] = w.ack.PendingDeltas
	case !r.isWrite() && resp.StatusCode == http.StatusOK:
		w.read.Nodes = w.read.Nodes[:0]
		if json.Unmarshal(w.body.Bytes(), &w.read) != nil || len(w.read.Nodes) > topK {
			p.status[i] = -1
			return
		}
		p.nn[i] = uint8(copy(p.nodes[i*topK:(i+1)*topK], w.read.Nodes))
		p.respTarget[i] = int32(w.read.Target)
		p.epsSpent[i] = w.read.Epsilon
	}
}

// The dispatcher waits for a due time in three steps, so that neither its
// timer slack nor its spinning is charged to the server: a Go timer sleep
// while more than sleepSlack remains (timer wake-ups overshoot by about a
// millisecond when the process is idle), then an OS-level nanosleep that
// leaves the processor to the server while more than spinWindow remains
// (it overshoots by tens of µs), then a busy wait on the clock.
const (
	sleepSlack = 2 * time.Millisecond
	spinWindow = 100 * time.Microsecond
)

func waitUntil(t int64) {
	for {
		d := time.Duration(t - now())
		switch {
		case d <= 0:
			return
		case d > sleepSlack:
			time.Sleep(d - sleepSlack)
		case d > spinWindow:
			ts := syscall.NsecToTimespec(int64(d - spinWindow))
			_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep only loops again
		default:
			for now() < t {
			}
		}
	}
}

// runOpen executes an open-loop phase: request i is sent at its due time
// on whichever of conns connections is free, or as soon as one frees up.
func runOpen(cl *client, p *phase, conns int) {
	work := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &worker{cl: cl}
			for i := range work {
				w.do(p, i)
			}
		}()
	}
	// A short lead lets the first arrivals find the workers parked.
	p.start = now() + int64(time.Millisecond)
	for i := range p.reqs {
		waitUntil(p.due(i))
		select {
		case work <- i:
			// The woken worker waits on this processor; let it send
			// before spinning toward the next due time.
			runtime.Gosched()
		default:
			p.queued[i] = true
			work <- i
			t := time.Duration(now() - p.start)
			due := sort.Search(len(p.reqs), func(j int) bool { return p.reqs[j].due > t })
			p.backlogMax = max(p.backlogMax, due-i)
		}
	}
	close(work)
	wg.Wait()
	p.done = len(p.reqs)
	p.elapsed = time.Duration(now() - p.start)
}

// runClosed executes a closed-loop phase: conns workers each send their
// next request as soon as the previous one completes, until d has passed
// or the schedule is used up.
func runClosed(cl *client, p *phase, conns int, d time.Duration) {
	var next atomic.Int64
	var wg sync.WaitGroup
	p.start = now()
	deadline := p.start + int64(d)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &worker{cl: cl}
			for {
				i := int(next.Add(1) - 1)
				if i >= len(p.reqs) || now() >= deadline {
					return
				}
				w.do(p, i)
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Duration(now() - p.start)
	for i := range p.reqs {
		if p.ran(i) {
			p.done++
		}
	}
}
