package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"socialrec"
	"socialrec/internal/budget"
	"socialrec/internal/distribution"
	"socialrec/internal/graph"
	"socialrec/internal/mechanism"
	"socialrec/internal/stream"
	"socialrec/internal/utility"
	"socialrec/internal/wal"
)

// The traced run. The program itself carries no tracing: the benchmark
// times the calls it makes into each layer's public functions, and weights
// each layer's per-call time by how often the program really called that
// layer, read from the program's own counters over an untraced phase. A
// layer the workload bypasses therefore reads as near-zero work.
//
//   - http and recserver: spans around the client round trip and around
//     recserver.Server.ServeHTTP for every request of a traced open-loop
//     phase at the nominal rate.
//   - socialrec, distribution, utility, mechanism, budget: a replay, after
//     the load, of a sample of the traced phase's reads through the same
//     entry points the server calls, then through each lower layer alone.
//   - wal, socialrec writes, graph: write probes, on live workloads only.

const (
	replayMax    = 1000
	replayBudget = 2 * time.Second
	// batch is the number of calls timed together for layers whose one
	// call is too short for the clock.
	batch      = 64
	writeProbe = 100
	patchProbe = 20
)

// span is one recorded interval. Batched probes record n calls in one span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: root
	Req    int    `json:"req"`    // request ID; -1 for write probes
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int    `json:"n,omitempty"`
}

type tracer struct{ spans []span }

func (t *tracer) add(parent, req int, name string, start, end int64, n int) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end, N: n})
	return id
}

func (t *tracer) write(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// counters is a snapshot of the program's own counters.
type counters struct {
	cache       socialrec.CacheStats
	live        socialrec.LiveStats
	pools       map[string]socialrec.PoolStat
	budgetCalls int64
	mem         runtime.MemStats
}

func readCounters(srv *server, cl *client) (counters, error) {
	var c counters
	var err error
	if c.budgetCalls, err = srv.budgetCalls(cl); err != nil {
		return c, fmt.Errorf("reading budget counters: %w", err)
	}
	c.cache, _ = srv.rec.CacheStats() // zero when caching is off
	c.live, _ = srv.rec.LiveStats()   // zero when not live
	c.pools = map[string]socialrec.PoolStat{}
	for _, p := range socialrec.StreamPoolStats() {
		c.pools[p.Name] = p
	}
	runtime.ReadMemStats(&c.mem)
	return c, nil
}

func (c counters) poolSums() (gets, news float64) {
	for _, p := range c.pools {
		gets += float64(p.Gets)
		news += float64(p.News)
	}
	return gets, news
}

func (c counters) walLSN() uint64 {
	if c.live.WAL == nil {
		return 0
	}
	return c.live.WAL.LastLSN
}

func runTraced(cfg config, in *inputs, rep *report) error {
	w := cfg.w
	srv, _, err := setupTimes(w, in, cfg.workdir, 1)
	if err != nil {
		return err
	}
	defer srv.close()
	cl := newClient(srv.base, conns)
	defer cl.close()
	warm(cfg, in, cl)

	// The untraced phase gives the counters and the base for every
	// per-request ratio; the traced phase at the same rate gives spans.
	plain := newPhase(in.openSchedule(w, "nominal", w.nominalQPS, cfg.span(0.35)), true)
	high := newPhase(in.openSchedule(w, "high", w.highQPS, cfg.span(0.2)), true)
	traced := newPhase(in.openSchedule(w, "traced", w.nominalQPS, cfg.span(0.35)), true)
	runtime.GC()
	before, err := readCounters(srv, cl)
	if err != nil {
		return err
	}
	runOpen(cl, plain, conns)
	after, err := readCounters(srv, cl)
	if err != nil {
		return err
	}
	runtime.GC()
	runOpen(cl, high, conns)
	runtime.GC()
	traced.id0 = 0
	hs := newHandlerSpans(len(traced.reqs))
	srv.spans.Store(hs)
	runOpen(cl, traced, conns)
	srv.spans.Store(nil)

	chk := &checker{snap: in.snap, eps: epsilon}
	for _, p := range []*phase{plain, high, traced} {
		rep.account(chk, p)
	}

	tr := &tracer{}
	rt := recordRequestSpans(tr, traced, hs)
	view := graph.Store(in.snap)
	if w.live {
		// Replays and write probes run against the graph the load left.
		g, err := srv.rec.CurrentGraph()
		if err != nil {
			return err
		}
		if err := srv.rec.Rebuild(); err != nil {
			return err
		}
		view = g.Snapshot()
	}
	rp, err := replay(tr, cfg, in, srv, traced, view)
	if err != nil {
		return err
	}
	var wp writeProbes
	if w.live {
		if wp, err = probeWrites(tr, cfg, srv, before, after); err != nil {
			return err
		}
	}
	spanPath := filepath.Join(cfg.workdir, "spans-"+w.name+".jsonl")
	if err := tr.write(spanPath); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("# %d spans written to %s\n", len(tr.spans), spanPath)

	layerMetrics(rep, plain, traced, before, after, rt, rp, wp)
	pr, pw := readLatencies(plain)
	hr, _ := readLatencies(high)
	rep.set("p50_ms", median(pr), "ms", fmt.Sprintf("n=%d at %.0f/s, untraced", len(pr), w.nominalQPS))
	rep.set("p99_ms", quantile(pr, 0.99), "ms", "")
	rep.set("p99_ms.high", quantile(hr, 0.99), "ms", fmt.Sprintf("n=%d at %.0f/s, untraced", len(hr), w.highQPS))
	rep.set("write_p50_ms", orZero(median(pw)), "ms", fmt.Sprintf("POST /v1/edges acknowledgement, n=%d", len(pw)))
	rep.set("write_p99_ms", orZero(quantile(pw, 0.99)), "ms", "")
	return nil
}

// requestTimes are the per-request spans of the traced phase, in µs.
type requestTimes struct {
	roundtrip, handler, httpSelf []float64
	// handlerByID maps a request ID to its handler time.
	handlerByID map[int]float64
}

func recordRequestSpans(tr *tracer, p *phase, hs *handlerSpans) requestTimes {
	rt := requestTimes{handlerByID: map[int]float64{}}
	for i := range p.reqs {
		if !p.ran(i) {
			continue
		}
		id := p.id0 + i
		tr.add(0, id, "loadgen.wait", p.due(i), p.send[i], 0)
		root := tr.add(0, id, "http.roundtrip", p.send[i], p.end[i], 0)
		rtt := float64(p.end[i]-p.send[i]) / 1e3
		rt.roundtrip = append(rt.roundtrip, rtt)
		hStart, hEnd := hs.start[id].Load(), hs.end[id].Load()
		if hEnd == 0 {
			continue
		}
		tr.add(root, id, "recserver.handler", hStart, hEnd, 0)
		h := float64(hEnd-hStart) / 1e3
		rt.handler = append(rt.handler, h)
		rt.httpSelf = append(rt.httpSelf, rtt-h)
		if !p.reqs[i].isWrite() {
			rt.handlerByID[id] = h
		}
	}
	return rt
}

// replayed is one sampled read's per-layer times (µs, or ns per call for
// the batched layers).
type replayed struct {
	id, k                       int
	rngNs, recUs, kernelUs      float64
	mechUs, cdfNs, reserveNs    float64
	nnz                         int
	tail                        bool
	hasCDF, hasReserve, hasDraw bool
	// kernelRuns and cacheLookups are what the replayed socialrec call
	// did, read from the program's counters around it.
	kernelRuns, cacheLookups int
}

// replay re-issues a sample of p's reads, after the load, through the
// entry point the server calls for them (Accountant or Recommender
// …WithRNG with a RequestRNG stream), then through each lower layer alone
// on the same target: the utility kernel (StreamSparse), the streaming
// draw or top-k over the materialized support, the cached-CDF draw
// (SampleSparseCDF) and a budget reservation.
func replay(tr *tracer, cfg config, in *inputs, srv *server, p *phase, view graph.Store) ([]replayed, error) {
	w := cfg.w
	u := w.utility()
	su, ok := u.(utility.Streamer)
	if !ok {
		return nil, fmt.Errorf("utility %s does not stream", u.Name())
	}
	sens := u.Sensitivity(view)
	mech := mechanism.Exponential{Epsilon: epsilon, Sensitivity: sens}
	var acct *socialrec.Accountant
	var mgr *budget.Manager
	if w.budget {
		var err error
		acct, err = socialrec.NewAccountant(srv.rec, 0, socialrec.PerPrincipalBudget(perPrincipalCap), socialrec.DisableLedger())
		if err != nil {
			return nil, err
		}
		mgr = budget.NewManager(budget.Limits{PerPrincipal: perPrincipalCap})
	}
	var reads []int
	for i, r := range p.reqs {
		if p.ran(i) && !r.isWrite() {
			reads = append(reads, i)
		}
	}
	step := max(1, len(reads)/replayMax)
	var out []replayed
	var idx []int32
	var val []float64
	deadline := now() + int64(replayBudget)
	for j := 0; j < len(reads) && now() < deadline; j += step {
		i := reads[j]
		r := p.reqs[i]
		t, k, id := int(r.target), int(r.k), p.id0+i
		s := replayed{id: id, k: k}
		rng := distribution.SplitN(in.seed, "replay", id)
		root := tr.add(0, id, "replay", now(), 0, 0)

		t0 := now()
		for range batch {
			srv.rec.RequestRNG()
		}
		t1 := now()
		tr.add(root, id, "distribution.request_rng", t0, t1, batch)
		s.rngNs = float64(t1-t0) / batch

		reqRNG := srv.rec.RequestRNG()
		cache0, _ := srv.rec.CacheStats()
		gets0 := kernelRuns()
		t0 = now()
		var err error
		switch {
		case acct != nil && k == 1:
			_, err = acct.RecommendWithRNG(t, reqRNG)
		case acct != nil:
			_, err = acct.RecommendTopKWithRNG(t, k, reqRNG)
		case k == 1:
			_, err = srv.rec.RecommendWithRNG(t, reqRNG)
		default:
			_, err = srv.rec.RecommendTopKWithRNG(t, k, reqRNG)
		}
		t1 = now()
		if err != nil {
			return out, fmt.Errorf("replaying target %d: %w", t, err)
		}
		tr.add(root, id, "socialrec.recommend", t0, t1, 0)
		s.recUs = float64(t1-t0) / 1e3
		cache1, _ := srv.rec.CacheStats()
		s.kernelRuns = int(kernelRuns() - gets0)
		s.cacheLookups = int(cache1.Hits + cache1.Misses - cache0.Hits - cache0.Misses)

		t0 = now()
		sc, err := su.StreamSparse(view, t)
		t1 = now()
		if err != nil {
			return out, fmt.Errorf("kernel on target %d: %w", t, err)
		}
		tr.add(root, id, "utility.kernel", t0, t1, 0)
		s.kernelUs = float64(t1-t0) / 1e3
		idx, val = idx[:0], val[:0]
		for {
			x, v, ok := sc.Next()
			if !ok {
				break
			}
			idx, val = append(idx, x), append(val, v)
		}
		sc.Close()
		s.nnz = len(idx)

		ncand := utility.CandidateCount(view, t)
		support := stream.NewSlice(idx, val)
		if k == 1 {
			t0 = now()
			pick, err := mech.RecommendStream(support, ncand, rng)
			t1 = now()
			if err != nil {
				return out, fmt.Errorf("draw on target %d: %w", t, err)
			}
			tr.add(root, id, "mechanism.draw", t0, t1, 0)
			s.mechUs, s.tail, s.hasDraw = float64(t1-t0)/1e3, pick.IsTail, true

			cdf, err := mech.SparseCDF(mechanism.SparseVec{Val: val, N: ncand})
			if err != nil {
				return out, fmt.Errorf("CDF on target %d: %w", t, err)
			}
			t0 = now()
			for range batch {
				mechanism.SampleSparseCDF(cdf, rng)
			}
			t1 = now()
			tr.add(root, id, "mechanism.cdf_draw", t0, t1, batch)
			s.cdfNs, s.hasCDF = float64(t1-t0)/batch, true
		} else {
			t0 = now()
			_, err := mechanism.TopKPeelStream(epsilon, sens, support, ncand, k, rng)
			t1 = now()
			if err != nil {
				return out, fmt.Errorf("top-k on target %d: %w", t, err)
			}
			tr.add(root, id, "mechanism.topk", t0, t1, 0)
			s.mechUs = float64(t1-t0) / 1e3
		}
		if mgr != nil {
			key := strconv.Itoa(t)
			t0 = now()
			for range batch {
				if _, err := mgr.Reserve(key, epsilon); err != nil {
					return out, fmt.Errorf("reserving for %d: %w", t, err)
				}
			}
			t1 = now()
			tr.add(root, id, "budget.reserve", t0, t1, batch)
			s.reserveNs, s.hasReserve = float64(t1-t0)/batch, true
		}
		tr.spans[root-1].End = now()
		out = append(out, s)
	}
	return out, nil
}

// kernelRuns is the number of utility kernel runs so far: every kernel
// call takes one scratch from the utility.sparse pool.
func kernelRuns() uint64 {
	for _, p := range socialrec.StreamPoolStats() {
		if p.Name == "utility.sparse" {
			return p.Gets
		}
	}
	return 0
}

// writeProbes are the live workload's write-path layer times.
type writeProbes struct {
	walUs, addEdgeUs, patchMs []float64
}

// probeWrites times WAL appends on a fresh log (fsync always), live
// AddEdge calls on the server's Recommender, and CSR.Patch of a batch as
// large as the run's mean writes per rebuild.
func probeWrites(tr *tracer, cfg config, srv *server, before, after counters) (writeProbes, error) {
	var wp writeProbes
	dir, err := os.MkdirTemp(cfg.workdir, "walprobe-")
	if err != nil {
		return wp, err
	}
	defer os.RemoveAll(dir)
	log, _, err := wal.Open(dir, wal.Options{Policy: wal.SyncAlways})
	if err != nil {
		return wp, fmt.Errorf("opening probe WAL: %w", err)
	}
	for i := range writeProbe {
		t0 := now()
		_, err := log.Append(wal.Record{Op: uint8(graph.DeltaAddEdge), From: int64(i), To: int64(i + 1)})
		t1 := now()
		if err != nil {
			log.Close()
			return wp, fmt.Errorf("probe WAL append: %w", err)
		}
		tr.add(0, -1, "wal.append", t0, t1, 0)
		wp.walUs = append(wp.walUs, float64(t1-t0)/1e3)
	}
	if err := log.Close(); err != nil {
		return wp, fmt.Errorf("closing probe WAL: %w", err)
	}

	g, err := srv.rec.CurrentGraph()
	if err != nil {
		return wp, err
	}
	rng := distribution.Split(cfg.seed, "writeprobe")
	for _, e := range freshEdges(g, rng, writeProbe) {
		t0 := now()
		err := srv.rec.AddEdge(e.From, e.To)
		t1 := now()
		if err != nil {
			return wp, fmt.Errorf("probe AddEdge %d-%d: %w", e.From, e.To, err)
		}
		tr.add(0, -1, "socialrec.add_edge", t0, t1, 0)
		wp.addEdgeUs = append(wp.addEdgeUs, float64(t1-t0)/1e3)
	}

	if g, err = srv.rec.CurrentGraph(); err != nil {
		return wp, err
	}
	rebuilds := after.live.Rebuilds - before.live.Rebuilds
	size := 1
	if rebuilds > 0 {
		size = max(1, int((after.walLSN()-before.walLSN())/rebuilds))
	}
	base := g.Snapshot()
	var deltas []graph.Delta
	for _, e := range freshEdges(g, rng, size) {
		deltas = append(deltas, graph.Delta{Op: graph.DeltaAddEdge, From: e.From, To: e.To})
	}
	for range patchProbe {
		t0 := now()
		base.Patch(deltas)
		t1 := now()
		tr.add(0, -1, "graph.patch", t0, t1, len(deltas))
		wp.patchMs = append(wp.patchMs, float64(t1-t0)/1e6)
	}
	return wp, nil
}

// freshEdges draws n distinct non-edges of g without self-loops.
func freshEdges(g *graph.Graph, rng *rand.Rand, n int) []graph.Edge {
	seen := map[[2]int]bool{}
	var out []graph.Edge
	for len(out) < n {
		u, v := rng.Intn(g.NumNodes()), rng.Intn(g.NumNodes())
		if u == v || g.HasEdge(u, v) || seen[[2]int{u, v}] || seen[[2]int{v, u}] {
			continue
		}
		seen[[2]int{u, v}] = true
		out = append(out, graph.Edge{From: u, To: v})
	}
	return out
}

func layerMetrics(rep *report, plain, traced *phase, before, after counters, rt requestTimes, rp []replayed, wp writeProbes) {
	reads, writes := 0, 0
	for i, r := range plain.reqs {
		switch {
		case !plain.ran(i):
		case r.isWrite():
			writes++
		default:
			reads++
		}
	}
	nreq := float64(reads + writes)
	R := float64(reads)

	utilCalls := float64(after.pools["utility.sparse"].Gets - before.pools["utility.sparse"].Gets)
	hits := float64(after.cache.Hits - before.cache.Hits)
	lookups := hits + float64(after.cache.Misses-before.cache.Misses)
	reservations := float64(after.budgetCalls - before.budgetCalls)

	var kernel, ranKernel, nnz, draw, topk, cdf, reserve, rng, rec, recSelf, srvSelf []float64
	tails, draws := 0, 0
	for _, s := range rp {
		kernel = append(kernel, s.kernelUs)
		nnz = append(nnz, float64(s.nnz))
		rng = append(rng, s.rngNs)
		rec = append(rec, s.recUs)
		if s.hasDraw {
			draw = append(draw, s.mechUs)
			draws++
			if s.tail {
				tails++
			}
		} else {
			topk = append(topk, s.mechUs)
		}
		if s.hasCDF {
			cdf = append(cdf, s.cdfNs)
		}
		if s.hasReserve {
			reserve = append(reserve, s.reserveNs)
		}
		// The replayed call's own counters say which layers it crossed:
		// a cache lookup ends in a CDF draw (k=1), anything else in a
		// streamed draw or top-k; the kernel ran on a miss or a stream.
		work := float64(s.kernelRuns)*s.kernelUs + s.reserveNs/1e3
		if s.kernelRuns > 0 {
			ranKernel = append(ranKernel, s.kernelUs)
		}
		if s.cacheLookups > 0 && s.hasCDF {
			work += s.cdfNs / 1e3
		} else {
			work += s.mechUs
		}
		recSelf = append(recSelf, s.recUs-work)
		if h, ok := rt.handlerByID[s.id]; ok {
			srvSelf = append(srvSelf, h-s.recUs-s.rngNs/1e3)
		}
	}
	// Per-call kernel time of the calls that really ran the kernel (cache
	// misses are not the hot targets), weighted by the run's kernel calls
	// per read.
	if len(ranKernel) == 0 {
		ranKernel = kernel
	}
	utilWork := ratio(utilCalls, R) * orZero(mean(ranKernel))

	pluck := func(xs []float64, q float64) float64 { return orZero(quantile(xs, q)) }
	rep.set("loadgen.requests", nreq, "count", "requests of the untraced phase: the base of per-request ratios")
	rep.set("utility.calls", utilCalls, "count", fmt.Sprintf("kernel runs (utility.sparse pool gets) for %d reads", reads))
	rep.set("utility.kernel_us_p50", pluck(kernel, 0.5), "us", fmt.Sprintf("n=%d replayed", len(kernel)))
	rep.set("utility.kernel_us_p99", pluck(kernel, 0.99), "us", "")
	rep.set("utility.nnz_mean", orZero(mean(nnz)), "count", "")
	rep.set("utility.work_us", utilWork, "us", "kernel time per read: calls per read times time per call")
	rep.set("utility.request_share", ratio(utilWork, orZero(mean(rt.handler))), "ratio", "of mean handler time")
	rep.set("mechanism.draw_us_p50", pluck(draw, 0.5), "us", fmt.Sprintf("n=%d", len(draw)))
	rep.set("mechanism.topk_us_p50", pluck(topk, 0.5), "us", fmt.Sprintf("n=%d", len(topk)))
	rep.set("mechanism.tail_pick_ratio", ratio(float64(tails), float64(draws)), "ratio", fmt.Sprintf("of %d streamed k=1 draws", draws))
	rep.set("mechanism.cdf_draw_ns_p50", pluck(cdf, 0.5), "ns", fmt.Sprintf("n=%d batches of %d", len(cdf), batch))
	rep.set("socialrec.cache_lookups", lookups, "count", "")
	rep.set("socialrec.cache_hit_ratio", ratio(hits, lookups), "ratio", "of socialrec.cache_lookups")
	rep.set("socialrec.cache_bytes", float64(after.cache.Bytes), "bytes", fmt.Sprintf("%d entries", after.cache.Entries))
	rep.set("socialrec.cache_retained", float64(after.cache.Retained-before.cache.Retained), "count", "")
	rep.set("socialrec.cache_invalidated", float64(after.cache.Invalidated-before.cache.Invalidated), "count", "")
	rebuilds := float64(after.live.Rebuilds - before.live.Rebuilds)
	rep.set("graph.rebuilds", rebuilds, "count", "")
	rep.set("graph.incremental_ratio", ratio(float64(after.live.IncrementalRebuilds-before.live.IncrementalRebuilds), rebuilds), "ratio", "of graph.rebuilds")
	rep.set("graph.patch_ms_p50", pluck(wp.patchMs, 0.5), "ms", fmt.Sprintf("n=%d", len(wp.patchMs)))
	pendingMax := 0
	for i, r := range plain.reqs {
		if plain.ran(i) && r.isWrite() {
			pendingMax = max(pendingMax, int(plain.pending[i]))
		}
	}
	rep.set("graph.pending_max", float64(pendingMax), "count", "from write acknowledgements")
	rep.set("wal.appends", float64(after.walLSN()-before.walLSN()), "count", "")
	rep.set("wal.append_us_p50", pluck(wp.walUs, 0.5), "us", fmt.Sprintf("n=%d, fsync always", len(wp.walUs)))
	rep.set("wal.append_us_p99", pluck(wp.walUs, 0.99), "us", "")
	rep.set("socialrec.add_edge_us_p50", pluck(wp.addEdgeUs, 0.5), "us", fmt.Sprintf("n=%d", len(wp.addEdgeUs)))
	rep.set("socialrec.add_edge_us_p99", pluck(wp.addEdgeUs, 0.99), "us", "")
	rep.set("budget.reservations", reservations, "count", "")
	rep.set("budget.reserve_ns_p50", pluck(reserve, 0.5), "ns", fmt.Sprintf("n=%d batches of %d", len(reserve), batch))
	rep.set("budget.refused", float64(rep.refused), "count", "429 answers; must be 0")
	rep.set("recserver.handler_us_p50", pluck(rt.handler, 0.5), "us", fmt.Sprintf("n=%d", len(rt.handler)))
	rep.set("recserver.handler_us_p99", pluck(rt.handler, 0.99), "us", "")
	rep.set("recserver.self_us_p50", pluck(srvSelf, 0.5), "us", "handler minus the replayed socialrec call and RNG split")
	rep.set("http.roundtrip_us_p50", pluck(rt.roundtrip, 0.5), "us", "")
	rep.set("http.self_us_p50", pluck(rt.httpSelf, 0.5), "us", "round trip minus handler")
	rep.set("distribution.request_rng_ns", pluck(rng, 0.5), "ns", "")
	rep.set("socialrec.recommend_us_p50", pluck(rec, 0.5), "us", fmt.Sprintf("n=%d replayed", len(rec)))
	rep.set("socialrec.recommend_us_p99", pluck(rec, 0.99), "us", "")
	rep.set("socialrec.self_us_p50", pluck(recSelf, 0.5), "us", "recommend minus the kernel, draw and reservation it made")
	gets, news := after.poolSums()
	gets0, news0 := before.poolSums()
	rep.set("stream.pool_gets", gets-gets0, "count", "")
	rep.set("stream.pool_new_ratio", ratio(news-news0, gets-gets0), "ratio", "of stream.pool_gets")
	rep.set("runtime.allocs_per_req", ratio(float64(after.mem.Mallocs-before.mem.Mallocs), nreq), "count", "client and server share the process")
	rep.set("runtime.alloc_bytes_per_req", ratio(float64(after.mem.TotalAlloc-before.mem.TotalAlloc), nreq), "bytes", "")
	rep.set("runtime.gc_cycles", float64(after.mem.NumGC-before.mem.NumGC), "count", "")
	rep.set("runtime.gc_pause_ms_total", float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6, "ms", "")
	late := lateness(plain)
	rep.set("loadgen.late_us_p50", pluck(late, 0.5), "us", fmt.Sprintf("n=%d sent on a free connection", len(late)))
	rep.set("loadgen.late_us_p99", pluck(late, 0.99), "us", "")
	rep.set("loadgen.backlog_max", float64(plain.backlogMax), "count", "")
	pr, _ := readLatencies(plain)
	tr, _ := readLatencies(traced)
	rep.set("trace.overhead_frac", median(tr)/median(pr)-1, "ratio", fmt.Sprintf("traced p50 %.4fms vs untraced %.4fms", median(tr), median(pr)))
	rep.set("error_frac", ratio(float64(rep.res.Failed), float64(rep.res.Attempted)), "ratio", fmt.Sprintf("of %d attempted", rep.res.Attempted))
	printGenerator("nominal", plain)
	checkGenerator(rep, late, median(pr))
}
