// Package socialrec is a differentially private social recommendation
// library reproducing "Personalized Social Recommendations — Accurate or
// Private?" (Machanavajjhala, Korolova, Das Sarma; PVLDB 4(7), 2011).
//
// The library makes graph link-analysis recommendations (friend, page, or
// product suggestions driven purely by the link structure of a social graph)
// under edge differential privacy: the recommendation distribution changes
// by at most a factor e^ε when any single sensitive edge is added to or
// removed from the graph.
//
// # Quick start
//
//	g := socialrec.NewGraph(4)
//	g.AddEdge(0, 1)
//	g.AddEdge(1, 2)
//	g.AddEdge(1, 3)
//	g.AddEdge(2, 3)
//	rec, err := socialrec.NewRecommender(g,
//		socialrec.WithEpsilon(1.0),
//		socialrec.WithUtility(socialrec.CommonNeighbors()),
//	)
//	if err != nil { ... }
//	suggestion, err := rec.Recommend(0) // a private suggestion for node 0
//
// # What the theory says
//
// The paper proves that privacy and accuracy are fundamentally at odds for
// social recommendations: any ε-differentially private recommender loses
// almost all utility for low-degree targets. The Recommender surfaces this
// through AccuracyCeiling, the per-target Corollary 1 upper bound on the
// accuracy any ε-private algorithm can attain, and ExpectedAccuracy, the
// accuracy the configured mechanism actually attains. Comparing the two on
// your own graph reproduces the paper's headline finding: good private
// social recommendations are feasible only for a small subset of users or
// for lenient privacy parameters.
//
// # Serving at scale
//
// Every recommendation factors into a deterministic pre-processing stage —
// computing the target's utility vector, candidate list, and u_max over the
// immutable graph snapshot — followed by a randomized mechanism draw. Only
// the draw carries the privacy guarantee, and its noise never comes from
// the cache. The Recommender can therefore memoize the pre-processing stage
// in a sharded LRU cache (WithCache) without touching the ε-DP
// analysis: caching is pure pre-processing in the differential privacy
// sense, the mechanism's output distribution is bit-for-bit the same with
// and without it, and the cached raw utilities never leave the process.
// Repeated-target serving then costs O(log nnz) per request — a binary
// search over the cached sparse CDF's per-block prefix sums plus a
// re-accumulation of at most 32 weights — instead of a graph scan, and each
// entry holds only the nonzero support (see "Serving complexity" below).
// The paper's path-count utilities are small integers, so an entry whose
// support takes at most 256 distinct utilities — every common-neighbour
// entry on the bundled graphs — stores them level-coded: a table of the
// distinct values plus a one-byte code per node. The support is a
// target's 2-3-hop neighbourhood, so its ascending node IDs sit close
// together and are stored as uvarint gaps, about one byte each, with an
// absolute ID and a 4 B offset every 32 nodes. An entry costs about 2.4 B
// per node in all instead of 12.25 B. Decoding returns the very node IDs
// and float64 utilities the kernel produced, so every draw reads the same
// numbers either way.
//
// A Recommender's snapshot changes only through a live Rebuild (see "Live
// graphs" below), which advances the cache epoch and sweeps the cache
// at the swap: entries the swap's delta batch provably did not touch are
// carried over, the rest are dropped on the spot. Without live mutations
// the snapshot taken at construction serves for the Recommender's whole
// life; to serve a different graph, build a new Recommender.
//
// What caching does NOT change: privacy budgeting. Each served
// recommendation still releases ε of information (the Accountant composes
// budgets additively regardless of cache hits), because the mechanism draw,
// not the utility computation, is what consumes the budget.
//
// # Streaming pipeline
//
// Every draw reads the target's nonzero support through one interface, the
// pull iterator stream.Scorer, and each mechanism has exactly one draw over
// it — the one its ε-DP argument is checked against. Only the source
// differs. When no cache is enabled, a request never materializes its
// utility vector at all — the stages fuse into one pull-based graph:
//
//	candidates ──▶ utility kernel ──▶ stream.Scorer ──▶ mechanism draw ──▶ top-k / pick
//	               (pooled scratch)    Next()/Reset()    (running scalars,   (O(k) heap)
//	                                   ascending pairs    noise folded in)
//
// The utility kernel runs against pooled accumulators and exposes the
// nonzero support as a stream.Scorer: Next() yields (node, utility) pairs
// ascending by node ID, Reset() rewinds for multi-pass consumers, Close()
// returns the scratch to its per-P pool. The mechanism consumes the stream
// directly — the exponential mechanism gathers the support into pooled
// scratch, weighs each entry once and finds the winning prefix crossing;
// the noisy-max family
// folds per-candidate noise into a running best; top-k offers noisy scores
// straight into a bounded O(k) heap. The only per-request state beyond
// pooled scratch is a handful of running scalars, so steady-state serving
// is allocation-free (an escape-analysis guard in CI and AllocsPerRun
// tests pin this), which is what keeps GC pauses out of the uncached p99.
//
// Through the cache, the source is instead a pooled stream.Slice over the
// cached entry's support, and the same draws run over it. The Slice reads
// a level-coded entry through its code (one branch in Next), so it yields
// the same (node, utility) pairs as the kernel did. The one
// exception is the cached exponential draw, which inverts the entry's
// precomputed SparseCDF: a binary search over prefix sums kept once per 32
// support entries, then the same prefix accumulation as the streamed draw
// inside the chosen block, with the weights read through the entry's code
// when it is level-coded. It consumes the same single uniform and finds
// the same candidate as the streamed draw. The smoothing top-k release also
// reads the gathered entry, because its without-replacement draws need the
// closed-form probabilities. A winning zero-tail rank maps back to a node
// ID by an ascending merge over the target, its out-row and the support.
// A cache entry first narrows the merge to one 32-entry block of its
// support, by binary search over the blocks' absolute first IDs; a kernel
// stream walks from the start.
//
// Scratch ownership is strictly per request: a scorer owns its pooled
// accumulators from StreamSparse until Close, the mechanism borrows the
// scorer only within the call, and nothing pooled is ever reachable after
// the request returns — the per-pool get/put/new counters are exported on
// /healthz so a leak (news tracking gets) is observable in production.
// There is one kernel per utility: StreamSparse, which utility.Function
// embeds. Uncached requests consume it lazily. stream.Encode drains it for
// cache fill (one walk that stages gap-coded node IDs, values and level
// numbers in pooled scratch, then one exact-size copy of the IDs and the
// codes or values), and the utility's Sparse gathers it
// into plain slices (the form the §7 experiments, the DP audit of
// internal/dpcheck and the partially sensitive ceiling of internal/bounds
// evaluate). Neither the utilities nor the mechanisms have a dense form
// outside their tests: each mechanism has one streamed draw and, when it
// admits one, one sparse closed form, and both the draws and the audit
// read those.
//
// The two sources are DP-equivalent for the strongest possible reason:
// they yield the same pairs, and the draws depend on nothing else, so for a
// fixed seed a cached and an uncached Recommender serve bit-identical bytes
// (property tests pin this across every utility, mechanism, directedness,
// and both the single and top-k APIs). u_max, Δf, the candidate domain and
// the mechanism's output distribution are untouched, and noise is still
// drawn from the request's RNG stream after the pre-noise scan.
//
// # Budget accounting
//
// The paper's guarantee is stated per user: Definition 1 bounds how much
// any one recommendation distribution can depend on any one sensitive
// edge, and sequential composition then adds the ε of every query
// answered. That composition is per principal — the cumulative spend on
// behalf of each individual target is what bounds how much the system has
// revealed about that user's world — so a deployment's real privacy
// posture is the per-target cumulative ε, not one global scalar. A single
// global budget gets both directions wrong at scale: one hot user's
// traffic exhausts everyone's budget, while the number nominally
// protecting "the deployment" says nothing about how much any individual
// target has leaked.
//
// The Accountant therefore enforces budgets at two scopes. The global cap
// (NewAccountant's totalEpsilon) preserves the original deployment-wide
// semantics; PerPrincipalBudget adds a cap on each principal's cumulative
// spend, and the principal is always the target node. Exhaustion is per
// principal: one user at their cap is refused (ErrBudgetExhausted,
// carrying a *BudgetError naming the refused scope) while every other
// user keeps serving.
//
// Internally, admission is a striped per-principal manager with O(1)
// atomic counters, so concurrent requests for different principals never
// contend on a global lock. Charges are reservations: the budget is
// debited before the query runs (concurrent callers cannot jointly
// overspend) and a failed query refunds exactly its own reservation — by
// construction a refund can never cancel another request's charge. The
// manager's counters are the one record of each charge: Spent, Remaining,
// Calls and TargetStats read them in O(1), however many principals and
// calls there are.
//
// Refunds are DP-safe for the same reason errors are: a refused or failed
// call released nothing about protected edges (refusal depends only on
// public parameters and the caller's own past spend; per-target errors
// depend on the target's own edges, which the relaxed Definition 1 leaves
// unprotected), so crediting its ε back does not weaken the composition
// bound over what was actually released.
//
// # Serving complexity
//
// The paper's utilities are zero outside a target's 2-3-hop out-
// neighborhood, so on sparse graphs the utility vector has nnz ≈ a few
// hundred nonzeros out of n candidates. Serving exploits this end to end:
// utility kernels (utility.Function's StreamSparse) walk the adjacency
// spans and yield only the nonzero support, and the mechanisms sample over
// (support + implicit uniform zero tail) in closed form. Per uncached
// request:
//
//	stage                        dense (pre-sparse)   sparse
//	common neighbors / Jaccard   O(n)                 O(Σ_{a∈out(r)} d_a)
//	weighted paths (len ≤ L)     O(L·n)               O(L-hop frontier), dense once ≥ n/4
//	rooted PageRank              O(iters·m)           O(iters·reached edges)
//	degree                       O(n)                 O(n) scan, O(nnz) alloc
//	candidate bookkeeping        O(n) list            O(1) count
//	Exponential draw             O(n)                 O(nnz); O(log nnz + 32) cached
//	Laplace / noisy-max draw     O(n) noise           O(nnz) + 1 closed-form tail max
//	Smoothing draw               O(n)                 O(nnz)
//	top-k release                O(n log k) / O(k·n)  O(nnz + k) / O(k·nnz)
//	expected accuracy (audit)    O(n)                 O(nnz)
//	cache entry memory           ~24n bytes           ~2.4·nnz + 8·levels B; ~9.4·nnz past 256 levels
//
// The weighted-paths walk tracks touched nodes only while a level stays
// sparse. A level whose expansion bound (Σ out-degree over its frontier)
// reaches n/4 accumulates straight into the dense array, and the score
// accumulator does the same once a level reaches n/8 nodes. On small-world
// graphs the length-3 frontier covers most nodes, so the walk then costs
// O(n + reached edges) per level with no per-edge bookkeeping.
//
// The exponential top-k peel does O(k·nnz) additions but only
// O(nnz·(1 + c)) exp evaluations, c the number of rounds whose pick changes
// the remaining maximum: a round's weights exp((ε/k/Δf)·(u_i − u_max))
// depend on nothing else, so they are reused until u_max changes.
//
// The zero tail needs no materialization because all zero-utility
// candidates are exchangeable under every mechanism: the Definition 5
// weighting gives each of them weight e^0 = 1, so the Exponential draw
// splits its single uniform between the support CDF and the closed-form
// tail mass (n_cand-nnz)·e^{-(ε/Δf)·u_max}, and noisy-max mechanisms
// sample the tail's maximum noise in one inverse-CDF draw (the max of m
// Laplace variates via U^{1/m}). A winning tail rank maps back to a node
// ID by a merge over the target's out-row and the support: O(d_r + nnz)
// over a kernel stream, and O(log nnz · log d_r + d_r) over a cache entry,
// whose gap-coded IDs restart at an absolute ID every 32 entries.
//
// Why sparsification preserves the DP guarantee: it is a pure pre-noise
// refactor. The sparse kernels return bit-identical nonzero values to the
// dense vectors (same Δf, same u_max, same candidate domain), and every
// sparse draw selects from exactly the same output distribution as the
// textbook dense mechanism over the expanded vector — the support/tail
// split only reorganizes how the same per-candidate probabilities are
// sampled, it never changes them. The dense mechanisms survive as test
// oracles, and the property tests pin the equivalence: exact per-node
// probability equality for Exponential/Smoothing/Best, chi-squared
// goodness of fit for the two-stage zero-tail draw and for Laplace, and
// bit-identical fixed-seed draws when the tail is empty. Identical output
// distribution ⇒ identical ε-DP guarantee and identical budget accounting.
// internal/dpcheck's exhaustive neighbor audit reads the sparse closed
// form itself, support plus zero tail, so the tail bookkeeping is audited
// too.
//
// # Live graphs
//
// The paper's setting is a live social network: edges arrive while
// recommendations are served. A Recommender built with WithLiveMutations
// (or the knobs implying it, WithRebuildInterval and WithMaxPendingDeltas)
// accepts streaming writes:
//
//	rec, _ := socialrec.NewRecommender(g,
//		socialrec.WithRebuildInterval(100*time.Millisecond),
//		socialrec.WithMaxPendingDeltas(1024),
//	)
//	defer rec.Close()
//	rec.AddEdge(3, 9)       // journaled; visible at the next rebuild
//	rec.RemoveEdge(1, 2)
//	id, _ := rec.AddNode()
//
// The live graph is the serving snapshot plus the ordered log of mutations
// accepted since it; no second copy of the graph is kept. A write is
// checked against the log and the snapshot, journaled, and appended to the
// log, and never blocks reads: readers keep serving the current immutable
// snapshot until a background rebuilder patches it with the pending log,
// merging each touched row once, and swaps the result in atomically,
// advancing the cache epoch. If that rebuild fails, the log stays pending
// and the next one retries it with any newer deltas. The rebuild is
// debounced by WithRebuildInterval and forced early once
// WithMaxPendingDeltas mutations accumulate; Rebuild folds pending deltas
// synchronously, and SnapshotVersion / PendingDeltas / LiveStats expose the
// subsystem for monitoring.
//
// Why live mutation is DP-safe: applying deltas is pre-processing — it
// changes the input graph that future snapshots are computed from, not any
// released output. Each recommendation is ε-differentially private with
// respect to the snapshot that produced it, because the privacy-bearing
// noise is drawn fresh per request after the deterministic pre-processing
// stage; no output is ever perturbed retroactively, and budget accounting
// composes exactly as for a static graph. The epoch-keyed cache guarantees
// pre-processing from an old graph is never mixed into answers over a new
// one.
//
// # Cache invalidation
//
// A snapshot swap bumps the cache epoch. Flushing every entry at each bump
// would leave a live graph under steady mutation traffic serving almost
// entirely uncached, so every live rebuild of a cached Recommender runs
// delta-aware retention instead, built on a per-utility invalidation
// radius.
//
// A utility declares locality by implementing InvalidationRadius() int
// (utility.Localized): radius ρ promises its output for target r is fully
// determined by r's ρ-hop out-ball, and its nonzero support lies inside
// that ball. CommonNeighbors and Jaccard declare 2, WeightedPaths declares
// its path-length truncation (3 by default). At each live rebuild, the
// patched delta batch's endpoints are expanded ρ reverse-BFS hops over the
// post-patch adjacency. One graph suffices: a shortest path from a target
// to its nearest delta endpoint uses no delta edge (its first one would
// start at a nearer endpoint), so that path exists before and after the
// patch, and the ball is the same in both graphs — even though an edge add
// can pull a node into a support that was previously empty, and an edge
// removal can orphan one. Entries whose target falls in that touched set
// are dropped; every other entry is re-keyed to the new epoch in place and
// keeps serving. CacheStats.Retained / .Invalidated (and /healthz) count
// both outcomes.
//
// The touched set is the whole test. An entry's dependency closure — the
// target, its out-neighbors and its nonzero support, everything a tail
// rank steps over — lies inside the target's ρ-out-ball on the pre-patch
// graph. A delta endpoint inside the closure is therefore within ρ hops of
// the target, which already puts the target in the touched set, so the
// cache keeps no per-entry dependency index. A retained entry's tail picks
// resolve through the target's out-row in the new snapshot, which is the
// row the entry was computed from: a change to that row puts one of its
// endpoints, the target, at distance 0.
//
// The conservative fallback: retention only happens when it is provably
// bit-exact. The swap flushes everything when the utility declares no
// radius (Degree scores every node; PageRank propagates mass globally),
// when the batch adds a node (the candidate count n-1-d(r) baked into every
// entry's tail ranks changes), when Δf or the smoothing weight changed
// across the swap (baked into cached CDF weights). A failed rebuild forces
// no flush: its batch stays pending, so the batch the next rebuild patches
// is still the whole diff between the two snapshots.
//
// Why retention is DP-safe: a retained entry is pure pre-noise state — raw
// utilities that never leave the process — and the locality contract makes
// it bit-identical to what a cache miss would recompute from the new
// snapshot (the retention tests and fuzzer enforce this field-for-field).
// The mechanism's output distribution over the new graph is therefore
// exactly that of an uncached Recommender: the same Δf is in force, and the
// privacy-bearing noise is still drawn fresh per request. No randomness and
// no released output ever crosses a snapshot boundary.
//
// # Durability and failure model
//
// A live Recommender's delta log and serving snapshots live in process
// memory, so by default a crash loses every mutation since the last
// persisted snapshot. WithWAL closes that window with a write-ahead log:
// every accepted mutation is journaled to a segmented, length-prefixed,
// CRC-32-checksummed on-disk log before it is applied or acknowledged.
// The ack contract is exact — AddEdge, RemoveEdge, and AddNode return nil
// only after the record is in the WAL (and, under the default fsync
// policy, on stable storage), and an append failure vetoes the mutation
// entirely: the journal is consulted before the mutation is applied, so it
// never reaches the live graph or becomes pending, and the WAL can never
// hold less than the acknowledged state.
// On reopen, the log replays onto the initial graph or the newest
// persisted snapshot; replay is idempotent (records a snapshot already
// covers skip as no-ops), tolerates torn tails (a partial or corrupt
// final frame — the debris of an append interrupted mid-write — is
// truncated, and nothing past the first bad checksum is ever replayed),
// and converges to a graph bit-identical to the acknowledged pre-crash
// state. Once a snapshot persists durably, the WAL segments it covers are
// deleted, bounding log growth.
//
// WithWALSync picks the durability/latency trade: FsyncAlways (default)
// fsyncs before every acknowledgment, so kill -9 and power loss lose
// zero acknowledged mutations; FsyncInterval batches fsyncs on a short
// timer, surviving process crashes but risking the last interval on
// power loss; FsyncOff leaves flushing to the OS.
//
// Failures past the ack point degrade instead of killing serving. Snapshot
// persistence and rebuilds retry with bounded exponential backoff; when
// retries exhaust, the Recommender keeps serving the last good snapshot
// and reports the failing subsystem via Degraded and LiveStats (recserver
// surfaces it as "status": "degraded" on /healthz), clearing the flag on
// the next success. A failed rebuild leaves its batch pending, and the
// next rebuild patches it again together with any newer deltas, so no
// acknowledged mutation is dropped.
//
// Why the WAL is DP-safe: the log records accepted graph mutations —
// pre-noise input state, exactly what the live graph's log already holds —
// and replay is pure pre-processing that reconstructs the input graph
// before any mechanism draw. No released output, no noise, and no budget
// state flows through the WAL, so recovery neither replays nor re-releases
// anything the composition analysis counts; recommendations served after
// recovery draw fresh noise against the recovered snapshot exactly as if
// the process had never died.
//
// # Storage layer
//
// Everything above the graph package serves from a narrow read-only
// snapshot interface (degrees, sorted neighbor spans, the two neighborhood
// scans the utilities are built from). An in-memory graph serves from a
// heap CSR; a snapshot file serves from a memory mapping of the same
// layout, or from a heap decode where mapping is impossible. The platform,
// not an option, picks which, and the mechanism layer cannot tell. The
// caller's mutable Graph stores one strictly ascending int32 row per node
// (and the mirrored in rows of a directed graph), about 6 B per stored
// entry, so the heap CSR NewRecommender builds from it is a copy of those
// rows behind their prefix sums, with no gather and no sort.
//
// Snapshots persist in the .srsnap binary format: an 8-byte magic and
// versioned 64-byte header followed by the four CSR sections (out-index,
// out-adjacency, and the in-adjacency mirror for directed graphs) as
// checksummed little-endian int32 arrays. WriteSnapshotFile produces one
// atomically (temp file + rename); recgen writes one directly for any -out
// name ending in ".srsnap".
//
//	socialrec.WriteSnapshotFile("social.srsnap", g)
//	rec, err := socialrec.NewRecommender(nil,
//		socialrec.WithSnapshotFile("social.srsnap"))
//	defer rec.Close()
//
// WithSnapshotFile lays []int32 views directly over the memory-mapped file
// and serves zero-copy out of the OS page cache. Opening it costs one
// sequential checksum-and-validation pass over the file — linear in its
// size, but running at disk/memory bandwidth with no parsing and no
// per-edge allocation, so it is far cheaper than re-parsing the edge list.
// Beyond that pass peak RSS no longer pays the build-then-flatten 2×
// transient, processes mapping the same file share one physical copy, and
// steady-state serving pages rows on demand, so the graph may exceed RAM.
// Where the platform cannot map the file (non-unix hosts, big-endian
// hosts) or mapping fails at run time (filesystems without mmap support),
// the file is decoded into the heap instead: the same CSR layout
// Graph.Snapshot builds, minus the edge-list re-parse and row building
// that dominate cold start.
//
// Live mutations compose with either store: rebuilds patch rows out of
// the current store into fresh heap CSRs (a writable copy-on-write overlay
// never aliasing the mapping), and WithSnapshotPersist writes every
// swapped snapshot back to disk atomically, so a restart resumes from the
// newest persisted graph.
//
// Why the storage layer is DP-safe: the store changes the representation
// of the snapshot, never its content or the mechanism consuming it. The
// mapping and the heap decode expose bit-identical adjacency read from the
// same checksummed sections, every utility vector computed over them
// is identical, and the privacy-bearing noise is drawn after that
// deterministic stage — so the mechanism's output distribution, and
// therefore the ε-DP guarantee and budget accounting, is invariant to
// which store serves the graph (this is pinned by a property test
// comparing Recommenders served from the in-memory graph, the mapping and
// the heap decode output-for-output).
//
// # Static analysis
//
// The invariants above are contracts between packages, and most of them
// are invisible to the type system: nothing stops a new call site from
// drawing math/rand global randomness, fabricating a cache epoch, or
// sampling noise before reserving budget. The reclint suite
// (internal/lint, run via cmd/reclint both standalone and as a
// go vet -vettool, gated in CI) mechanically enforces the ones that have
// bitten or nearly bitten:
//
//   - rngdiscipline: all randomness must flow through
//     distribution.NewRNG/SplitN seeded streams — no global math/rand
//     draws, no ad-hoc rand.New outside internal/distribution and
//     internal/mechanism. Guards the determinism contract behind
//     replayable noise, the dpcheck harness, and every seeded benchmark
//     (see "What the theory says" and the mechanism layer).
//
//   - poolscratch: values obtained from stream.Pool.Get must not be used
//     after Put/Close and must not be stored into longer-lived structures.
//     Guards the zero-alloc streaming pipeline's scratch ownership rule
//     ("Streaming pipeline": the kernel owns scratch until Close).
//
//   - atomicfield: a struct field accessed through sync/atomic anywhere
//     must be accessed that way everywhere — one plain read next to an
//     atomic increment is a data race the race detector only catches when
//     the schedule cooperates. The repo itself uses typed atomics
//     (atomic.Int64 and friends), which are immune by construction; the
//     analyzer keeps mixed-discipline code from creeping back in.
//
//   - epochkey: cache insertions and key literals must derive their epoch
//     from snapshot-state plumbing rather than fabricating one — a made-up
//     epoch silently defeats the delta-aware invalidation of
//     "Cache invalidation" and can serve stale utility vectors across a
//     snapshot swap.
//
//   - noiseorder: inside Accountant methods, any mechanism sampling must
//     be dominated by the budget reservation — reservation-before-query is
//     what makes the ε-accounting of "Budget accounting" sound under
//     crashes and concurrency.
//
// Findings are suppressed only by an inline "//lint:allow <analyzer>
// <reason>" comment with a mandatory reason; a missing reason is itself
// reported. Each analyzer ships positive and negative fixtures under
// internal/lint/testdata, and cmd/reclint has a smoke test pinning that
// the suite stays clean over this repository.
package socialrec
