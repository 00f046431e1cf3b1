// Command benchmark is the repository's performance benchmark: open-loop
// HTTP latency and closed-loop capacity of an in-process recserver on the
// hot_cached, cold_scan and live_mixed workloads, with every answer
// checked, and per-layer attribution from a separate traced run.
//
// Run it from the repository root:
//
//	bash benchmark/run.sh --workload hot_cached --seed 1 --seconds 24 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones, with --trace 1 the per-layer ones (see README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"socialrec/internal/graph"
)

// conns is the number of keep-alive connections and GOMAXPROCS: the host's
// processor count.
var conns = runtime.NumCPU()

const (
	setupReps   = 5
	maxLateFrac = 0.5 // generator lateness p50 at or above this share of p50_ms invalidates a run
	// capacityHeadroom sizes a closed-loop schedule as this many times
	// the workload's high rate per second: several times what any
	// workload completes. A schedule used up ends its phase early, which
	// leaves the measured rate correct.
	capacityHeadroom = 10
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's metrics, failures and human-readable notes.
type report struct {
	res      result
	problems []string
	refused  int // 429 answers: budget refusals
}

func (r *report) set(name string, v float64, unit, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.problem("metric %s has no value: too few samples", name)
		v = 0
	}
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
	if note != "" {
		note = "  (" + note + ")"
	}
	fmt.Printf("# %-32s %14.6g %-6s%s\n", name, v, unit, note)
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// account adds p's requests to attempted/failed, checking every answer.
func (r *report) account(c *checker, p *phase) {
	for i := range p.reqs {
		if !p.ran(i) {
			continue
		}
		r.res.Attempted++
		if p.status[i] == http.StatusTooManyRequests {
			r.refused++
		}
		if err := c.failure(p, i); err != nil {
			r.res.Failed++
			if r.res.Failed <= 5 {
				r.problem("%v", err)
			}
		}
	}
}

type config struct {
	w       workload
	seed    int64
	seconds float64
	trace   bool
	workdir string
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: hot_cached, cold_scan or live_mixed")
		seed    = flag.Int64("seed", 1, "seed for the graph and the request schedules")
		seconds = flag.Float64("seconds", 24, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
		workdir = flag.String("workdir", ".bench_build", "directory for WAL scratch and span files")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		log.Fatal(err)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		log.Fatal("--seconds must be positive and --trace 0 or 1")
	}
	runtime.GOMAXPROCS(conns)
	// Flush dirty pages left by the build, so they do not slow the
	// workload's own fsyncs.
	syscall.Sync()
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		log.Fatal(err)
	}
	cfg := config{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, workdir: *workdir}
	rep, err := run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "problem:", p)
	}
	rep.res.Correct = len(rep.problems) == 0
	out, err := json.Marshal(rep.res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(out))
}

func run(cfg config) (*report, error) {
	in, err := makeInputs(cfg.seed)
	if err != nil {
		return nil, err
	}
	printMeta(cfg, in)
	rep := &report{res: result{Metrics: map[string]metric{}}}
	if cfg.trace {
		err = runTraced(cfg, in, rep)
	} else {
		err = runEndToEnd(cfg, in, rep)
	}
	return rep, err
}

func (c config) span(frac float64) time.Duration {
	return time.Duration(frac * c.seconds * float64(time.Second))
}

// warm runs the workload mix closed-loop so caches, pools and the
// rebuilder reach steady state before anything is measured.
func warm(cfg config, in *inputs, cl *client) {
	p := newPhase(in.schedule(cfg.w, "warmup", cfg.w.warmupReqs, 0), false)
	runClosed(cl, p, conns, time.Minute)
}

// liveHeapMB forces a collection and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// readLatencies returns p's read latencies in ms, and its write ones.
func readLatencies(p *phase) (reads, writes []float64) {
	for i, r := range p.reqs {
		if !p.ran(i) {
			continue
		}
		ms := float64(p.latency(i)) / 1e6
		if r.isWrite() {
			writes = append(writes, ms)
		} else {
			reads = append(reads, ms)
		}
	}
	return reads, writes
}

// lateness returns the open-loop generator's lateness (send - due, in
// µs) over requests that found a free connection.
func lateness(p *phase) []float64 {
	var out []float64
	for i := range p.reqs {
		if p.ran(i) && !p.queued[i] {
			out = append(out, float64(p.send[i]-p.due(i))/1e3)
		}
	}
	return out
}

// printGenerator reports how late an open-loop phase's generator ran
// and how far its backlog grew.
func printGenerator(label string, p *phase) {
	late := lateness(p)
	fmt.Printf("# %s: offered %d in %.2fs, generator late p50 %.1fus p99 %.1fus, backlog max %d\n",
		label, len(p.reqs), p.elapsed.Seconds(), median(late), quantile(late, 0.99), p.backlogMax)
}

// checkGenerator flags a run whose generator ran late, at the nominal
// rate, by an amount comparable to the latency it measures: such a run is
// invalid, not slow.
func checkGenerator(rep *report, late []float64, p50ms float64) {
	if l := median(late); l/1e3 >= maxLateFrac*p50ms {
		rep.problem("invalid run: nominal generator lateness p50 %.1fus is comparable to p50 %.3fms", l, p50ms)
	}
}

// rounds is how many times a run repeats its nominal, high and capacity
// phases. Each round's capacity figures are computed on their own and the
// run reports the median over rounds, so a burst of noise on the host
// spoils one round, not the run.
const rounds = 6

// Shares of a run's measured seconds.
const (
	nominalShare  = 0.25
	highShare     = 0.2
	capacityShare = 0.55
)

func runEndToEnd(cfg config, in *inputs, rep *report) error {
	w := cfg.w
	srv, setups, err := setupTimes(w, in, cfg.workdir, setupReps)
	if err != nil {
		return err
	}
	defer srv.close()
	cl := newClient(srv.base, conns)
	defer cl.close()
	warm(cfg, in, cl)
	// The live heap is sampled after warm-up and after every round; the
	// cache's contents move with the request mix, so one sample is noisy.
	heap := []float64{liveHeapMB()}

	chk := &checker{snap: in.snap, eps: epsilon}
	var answers []answer
	var nominalLat, nominalLate, highLat, writeLat, capQPS, cpuPerReq []float64
	for r := range rounds {
		if r > 0 {
			heap = append(heap, liveHeapMB())
		}
		label := "round" + strconv.Itoa(r)
		capSpan := cfg.span(capacityShare / rounds)
		nominal := newPhase(in.openSchedule(w, label+".nominal", w.nominalQPS, cfg.span(nominalShare/rounds)), true)
		high := newPhase(in.openSchedule(w, label+".high", w.highQPS, cfg.span(highShare/rounds)), true)
		capacity := newPhase(in.schedule(w, label+".capacity", int(capacityHeadroom*w.highQPS*capSpan.Seconds()), 0), false)
		// Each phase starts on a freshly collected heap, so the collections
		// inside it depend on what it allocates, not on what came before.
		runtime.GC()
		runOpen(cl, nominal, conns)
		runtime.GC()
		runOpen(cl, high, conns)
		runtime.GC()
		cpu0 := cpuTime()
		runClosed(cl, capacity, conns, capSpan)
		cpuPerReq = append(cpuPerReq, float64(cpuTime()-cpu0)/1e3/float64(capacity.done))
		capQPS = append(capQPS, float64(capacity.done)/capacity.elapsed.Seconds())

		for _, p := range []*phase{nominal, high, capacity} {
			rep.account(chk, p)
		}
		for _, p := range []*phase{nominal, high, capacity} {
			answers = append(answers, k1Answers(p)...)
		}
		nr, nw := readLatencies(nominal)
		hr, _ := readLatencies(high)
		nominalLat, highLat, writeLat = append(nominalLat, nr...), append(highLat, hr...), append(writeLat, nw...)
		nominalLate = append(nominalLate, lateness(nominal)...)
		printGenerator(label+" nominal", nominal)
		printGenerator(label+" high", high)
	}
	checkGenerator(rep, nominalLate, median(nominalLat))
	g := in.g
	if w.live {
		if answers, g, err = quiescentAnswers(cfg, in, srv, cl); err != nil {
			return err
		}
	}
	acc, err := checkAccuracy(g, w.utility(), epsilon, answers, conns)
	if err != nil {
		return err
	}
	for _, e := range acc.errs {
		rep.problem("%v", e)
	}

	printLatencies(w, nominalLat, highLat, writeLat)
	rep.set("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups", len(setups)))
	rep.set("capacity_qps", median(capQPS), "1/s", fmt.Sprintf("median of %d closed-loop rounds over %d connections", rounds, conns))
	rep.set("cpu_us_per_req", median(cpuPerReq), "us", fmt.Sprintf("process CPU per request, median of %d closed-loop rounds", rounds))
	rep.set("ok_frac", 1-ratio(float64(rep.res.Failed), float64(rep.res.Attempted)), "ratio",
		fmt.Sprintf("%d of %d attempted failed", rep.res.Failed, rep.res.Attempted))
	rep.set("accuracy_mean", acc.mean, "ratio", fmt.Sprintf("n=%d, expected %.5f, bound ±%.5f", acc.n, acc.expected, acc.bound))
	rep.set("heap_mb", median(heap), "MB", fmt.Sprintf("median of %d post-GC samples after warm-up", len(heap)))
	return nil
}

// printLatencies prints the open-loop latencies of an untraced run. They
// are context, not part of the result: on a shared 2-vCPU host their
// spread between runs is larger than any bound the result may carry, so
// the traced run reports them among the per-layer metrics instead.
func printLatencies(w workload, nominal, high, writes []float64) {
	fmt.Printf("# latency at %.0f/s: p50 %.4f ms, p99 %.4f ms (n=%d)\n", w.nominalQPS, median(nominal), quantile(nominal, 0.99), len(nominal))
	fmt.Printf("# latency at %.0f/s: p50 %.4f ms, p99 %.4f ms (n=%d)\n", w.highQPS, median(high), quantile(high, 0.99), len(high))
	if len(writes) > 0 {
		fmt.Printf("# write acknowledgement at %.0f/s: p50 %.4f ms, p99 %.4f ms (n=%d)\n", w.nominalQPS, median(writes), quantile(writes, 0.99), len(writes))
	}
}

// quiescentAccuracyReads is the size of live_mixed's accuracy pass.
const quiescentAccuracyReads = 3000

// quiescentAnswers folds live_mixed's pending writes into the serving
// snapshot, then sends k=1 reads with no writes in flight, so each answer
// is scored against the exact graph that served it.
func quiescentAnswers(cfg config, in *inputs, srv *server, cl *client) ([]answer, *graph.Graph, error) {
	if err := srv.rec.Rebuild(); err != nil {
		return nil, nil, fmt.Errorf("rebuild before accuracy pass: %w", err)
	}
	g, err := srv.rec.CurrentGraph()
	if err != nil {
		return nil, nil, err
	}
	reads := workload{zipf: cfg.w.zipf}
	p := newPhase(in.schedule(reads, "accuracy", quiescentAccuracyReads, 0), false)
	runClosed(cl, p, conns, time.Minute)
	return k1Answers(p), g, nil
}

func printMeta(cfg config, in *inputs) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	meta := map[string]any{
		"workload": cfg.w.name, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "connections": conns,
		"cpu": cpuModel(), "go": runtime.Version(), "commit": commit,
		"graph": "WikiVoteLike", "nodes": in.g.NumNodes(), "edges": in.g.NumEdges(),
		"eligible_targets": len(in.eligible), "utility": cfg.w.utility().Name(), "mechanism": "exponential",
		"epsilon": epsilon, "nominal_qps": cfg.w.nominalQPS, "high_qps": cfg.w.highQPS,
		"top_k_share": cfg.w.topKShare, "write_share": cfg.w.writeShare, "cache": cfg.w.cache,
		"budget": cfg.w.budget, "live": cfg.w.live, "zipf_targets": cfg.w.zipf, "zipf_s": zipfS,
	}
	b, _ := json.Marshal(map[string]any{"meta": meta}) // plain values always encode
	fmt.Println(string(b))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTime is the process's user plus system CPU time in ns.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}
