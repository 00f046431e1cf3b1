// Command recserve runs the differentially private recommendation service
// over an edge-list graph or a binary .srsnap snapshot.
//
// Usage:
//
//	recserve -graph social.txt -epsilon 1 -budget 100 -addr :8080
//	recserve -graph social.txt -epsilon 1 -per-user-budget 5
//	recserve -snapshot social.srsnap
//	recserve -graph social.txt -live -rebuild-interval 100ms -max-pending 1024
//	recserve -snapshot social.srsnap -live -persist-snapshot social.srsnap
//	recserve -graph social.txt -live -wal-dir wal/ -fsync always
//
// Endpoints:
//
//	GET /healthz                       status, snapshot version, cache + live + budget stats
//	GET /v1/recommend?target=42        one private recommendation
//	GET /v1/recommend?target=42&k=5    private top-k
//	GET /v1/audit?target=42            accuracy ceiling + expected accuracy
//	GET /v1/budget                     global privacy budget status
//	GET /v1/budget?target=42           target 42's own budget scope
//	GET /debug/pprof/...               profiling (only with -pprof; operator-only)
//
// Budgets: -budget caps the deployment-wide privacy spend; -per-user-budget
// additionally caps each target node's own cumulative spend — the paper's ε
// composition is per user, so the per-user cap is the deployment's real
// privacy posture, and one hot user exhausting their own budget no longer
// exhausts everyone's. Either flag alone enables accounting (-budget 0
// -per-user-budget 5 runs with per-user caps only). Refused requests get
// 429 with Retry-After and X-Budget-Remaining headers; refusals are
// per-user and independent.
//
// Startup: -graph re-parses a SNAP edge list and rebuilds adjacency —
// minutes on large graphs. -snapshot cold-starts from the checksummed
// binary snapshot in milliseconds. Where the platform can memory-map the
// file, the adjacency is served zero-copy straight from the page cache, so
// peak RSS stays near zero extra and multiple processes share one physical
// copy; elsewhere, or when mapping fails, the file is decoded into the
// heap. Produce snapshots with recgen -out g.srsnap or
// socialrec.WriteSnapshotFile.
//
// With -live the graph accepts streaming mutations while serving:
//
//	POST   /v1/edges   {"from":1,"to":2}  insert an edge
//	DELETE /v1/edges?from=1&to=2          remove an edge (JSON body also accepted)
//	POST   /v1/nodes                      append a new isolated node
//
// Mutations are journaled into a delta log and folded into the serving
// snapshot by a background rebuilder, debounced by -rebuild-interval and
// forced early once -max-pending deltas accumulate; until then reads serve
// the previous consistent snapshot. With -persist-snapshot every swapped
// snapshot is additionally written (atomically, temp file + rename) to the
// given .srsnap path, so a restart with -snapshot on that path resumes
// from the newest persisted graph. Mutating the graph is DP-safe
// pre-processing: it changes the *input* of future recommendations, not any
// released output, so every answer remains ε-differentially private with
// respect to the snapshot that produced it and the privacy budget
// accounting is unchanged.
//
// Durability: -wal-dir journals every accepted mutation to a checksummed
// write-ahead log before the HTTP response acknowledges it, and replays
// the log on restart, so even kill -9 loses no acknowledged writes
// (-fsync always; "interval" trades up to ~50ms of OS-crash durability
// for latency). Combine with -persist-snapshot to bound the log: once a
// persisted snapshot durably covers a log prefix, those segments are
// reclaimed.
//
// Randomness: every request draws its noise from its own stream
// (socialrec.Recommender.RequestRNG), so repeated requests for one target
// are independent draws, each charged its own ε. With -cache on, repeated
// targets reuse the cached pre-noise stage; the noise is never reused.
//
// Robustness: handler panics are recovered to 500s (counted on
// /healthz), each request runs under a -request-timeout deadline (a
// recommendation drawn after it is answered with 503; a late mutation
// reports its real status), and beyond -max-inflight concurrent requests
// the server sheds load with immediate 503 + Retry-After instead of
// queueing without bound. When a subsystem (WAL, snapshot persistence,
// rebuilds) fails persistently the server degrades instead of dying:
// /healthz reports status "degraded" with the failing subsystem, and reads
// keep serving from the last good snapshot.
//
// On SIGINT/SIGTERM the server shuts down gracefully: the listener closes,
// in-flight requests drain (up to -drain-timeout), the live rebuilder stops,
// and only then is the snapshot mapping released.
//
// The write endpoints are unauthenticated, like the rest of the service:
// anyone who can reach them can rewrite the serving graph. Run -live only
// behind operator authentication or on trusted networks.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"socialrec"
	"socialrec/internal/recserver"
)

func main() {
	var (
		path      = flag.String("graph", "", "edge-list file (this or -snapshot is required)")
		snapPath  = flag.String("snapshot", "", "binary .srsnap snapshot file (this or -graph is required)")
		directed  = flag.Bool("directed", false, "treat the edge list as directed (with -graph)")
		epsilon   = flag.Float64("epsilon", 1, "per-recommendation privacy parameter")
		budget    = flag.Float64("budget", 100, "total privacy budget across all users (0 disables the global cap)")
		perUser   = flag.Float64("per-user-budget", 0, "per-target-node privacy budget; refusals are per user (0 disables per-user accounting)")
		mech      = flag.String("mechanism", "exponential", "mechanism: exponential, laplace, smoothing")
		addr      = flag.String("addr", ":8080", "listen address")
		seed      = flag.Int64("seed", 0, "seed (0 = time-based; use non-zero only for testing)")
		cache     = flag.Int("cache", socialrec.DefaultCacheSize, "utility-vector cache entries (0 disables caching, negative selects the default)")
		live      = flag.Bool("live", false, "accept streaming graph mutations (POST /v1/edges, DELETE /v1/edges, POST /v1/nodes)")
		interval  = flag.Duration("rebuild-interval", socialrec.DefaultRebuildInterval, "debounce interval for folding mutations into the serving snapshot (with -live)")
		maxPend   = flag.Int("max-pending", socialrec.DefaultMaxPendingDeltas, "pending mutations that force an immediate snapshot rebuild (with -live)")
		persist   = flag.String("persist-snapshot", "", "atomically persist every swapped snapshot to this .srsnap path (with -live)")
		walDir    = flag.String("wal-dir", "", "journal every mutation to a write-ahead log in this directory before acknowledging; replayed on restart (implies -live)")
		fsync     = flag.String("fsync", "always", "WAL fsync policy: always (survives power loss), interval (survives process crash), off (with -wal-dir)")
		drain     = flag.Duration("drain-timeout", 15*time.Second, "how long graceful shutdown waits for in-flight requests")
		reqTO     = flag.Duration("request-timeout", 10*time.Second, "per-request deadline; a recommendation drawn after it gets 503, a late mutation keeps its status (0 disables)")
		maxInFly  = flag.Int("max-inflight", 256, "max concurrently handled requests before shedding with 503 (0 disables)")
		pprofFlag = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof (expose only to operators)")
	)
	flag.Parse()
	if (*path == "") == (*snapPath == "") {
		fmt.Fprintln(os.Stderr, "recserve: exactly one of -graph and -snapshot is required")
		flag.Usage()
		os.Exit(2)
	}
	if *walDir != "" {
		*live = true // journaled mutations require the mutation API
	}
	if *persist != "" && !*live {
		// Without -live no snapshot swap ever happens, so nothing would
		// ever be persisted; reject rather than silently never writing.
		fmt.Fprintln(os.Stderr, "recserve: -persist-snapshot requires -live")
		flag.Usage()
		os.Exit(2)
	}

	var kind socialrec.MechanismKind
	switch *mech {
	case "exponential":
		kind = socialrec.MechanismExponential
	case "laplace":
		kind = socialrec.MechanismLaplace
	case "smoothing":
		kind = socialrec.MechanismSmoothing
	default:
		log.Fatalf("recserve: unknown mechanism %q", *mech)
	}

	s := *seed
	if s == 0 {
		s = time.Now().UnixNano()
	}
	opts := []socialrec.Option{
		socialrec.WithEpsilon(*epsilon),
		socialrec.WithMechanism(kind),
		socialrec.WithSeed(s),
	}
	if *cache != 0 {
		opts = append(opts, socialrec.WithCache(*cache)) // negative: the default size
	}
	if *live {
		opts = append(opts,
			socialrec.WithRebuildInterval(*interval),
			socialrec.WithMaxPendingDeltas(*maxPend),
		)
	}
	if *persist != "" {
		opts = append(opts, socialrec.WithSnapshotPersist(*persist))
	}
	if *walDir != "" {
		mode, err := socialrec.ParseFsyncMode(*fsync)
		if err != nil {
			log.Fatalf("recserve: %v", err)
		}
		opts = append(opts, socialrec.WithWAL(*walDir), socialrec.WithWALSync(mode))
	}

	loadStart := time.Now()
	var (
		rec    *socialrec.Recommender
		err    error
		source string
	)
	if *snapPath != "" {
		opts = append(opts, socialrec.WithSnapshotFile(*snapPath))
		rec, err = socialrec.NewRecommender(nil, opts...)
		source = fmt.Sprintf("snapshot %s", *snapPath)
	} else {
		var g *socialrec.Graph
		g, err = socialrec.ReadGraphFile(*path, *directed)
		if err == nil {
			rec, err = socialrec.NewRecommender(g, opts...)
		}
		source = fmt.Sprintf("edge list %s", *path)
	}
	if err != nil {
		log.Fatalf("recserve: %v", err)
	}
	loadTime := time.Since(loadStart)

	srv, err := recserver.New(recserver.Config{
		Recommender:         rec,
		TotalEpsilon:        *budget,
		PerPrincipalEpsilon: *perUser,
		EnablePprof:         *pprofFlag,
		HandlerTimeout:      *reqTO,
		MaxInFlight:         *maxInFly,
	})
	if err != nil {
		log.Fatalf("recserve: %v", err)
	}

	mode := "static graph"
	if *live {
		mode = fmt.Sprintf("live graph (rebuild every %v or %d deltas)", *interval, *maxPend)
	}
	budgets := fmt.Sprintf("budget=%g", *budget)
	if *perUser > 0 {
		budgets += fmt.Sprintf(" per-user=%g", *perUser)
	}
	log.Printf("recserve: loaded %s in %v, eps=%g, %s, %s, listening on %s",
		source, loadTime.Round(time.Millisecond), *epsilon, budgets, mode, *addr)
	server := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 5 * time.Second,
	}

	// Graceful shutdown: SIGINT/SIGTERM stops the listener and drains
	// in-flight requests before the rebuilder is closed and the snapshot
	// mapping (if any) is released — unmapping under an in-flight scan
	// would fault, so the ordering here is load-bearing.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- server.ListenAndServe() }()

	select {
	case err := <-errc:
		log.Fatalf("recserve: %v", err)
	case <-ctx.Done():
		stop() // restore default signal behavior: a second signal kills
		log.Printf("recserve: signal received, draining (up to %v)", *drain)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		drained := true
		if err := server.Shutdown(shutdownCtx); err != nil {
			drained = false
			log.Printf("recserve: drain incomplete: %v", err)
		}
		// Fold mutations acknowledged since the last debounce tick, so
		// -persist-snapshot captures everything clients were told
		// succeeded before the process goes away. Rebuild and persist are
		// swap-and-write operations, safe even if stragglers are still
		// being served.
		if err := rec.Rebuild(); err != nil && !errors.Is(err, socialrec.ErrNotLive) {
			log.Printf("recserve: final rebuild: %v", err)
		}
		if drained {
			if err := rec.Close(); err != nil {
				log.Printf("recserve: close: %v", err)
			}
		} else {
			// Stragglers may still be scanning a memory-mapped snapshot;
			// leave the mapping to process exit rather than unmap under
			// them.
			log.Printf("recserve: exiting without unmap")
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("recserve: serve: %v", err)
		}
		log.Printf("recserve: shut down cleanly")
	}
}
