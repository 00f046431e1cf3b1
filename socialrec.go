package socialrec

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"socialrec/internal/bounds"
	"socialrec/internal/distribution"
	"socialrec/internal/graph"
	"socialrec/internal/mechanism"
	"socialrec/internal/stream"
	"socialrec/internal/utility"
	"socialrec/internal/wal"
)

// Graph is the social graph recommendations are computed over. Nodes are
// the dense integers 0..N-1; edges may be directed (follower-style) or
// undirected (friendship-style).
type Graph = graph.Graph

// Edge is a single link of a Graph.
type Edge = graph.Edge

// NewGraph returns an undirected graph with n isolated nodes.
func NewGraph(n int) *Graph { return graph.New(n) }

// UtilityFunction scores how good each candidate recommendation is for a
// target, using only the link structure of the graph.
type UtilityFunction = utility.Function

// CommonNeighbors returns the number-of-common-neighbors utility, the
// paper's running example and the measure behind "people you may know"
// features.
func CommonNeighbors() UtilityFunction { return utility.CommonNeighbors{} }

// WeightedPaths returns the weighted-paths (truncated Katz) utility with
// discount gamma, counting paths of length up to 3 as in the paper's
// experiments.
func WeightedPaths(gamma float64) UtilityFunction { return utility.WeightedPaths{Gamma: gamma} }

// PersonalizedPageRank returns the rooted PageRank utility with restart
// probability alpha (0.15 when alpha is 0).
func PersonalizedPageRank(alpha float64) UtilityFunction { return utility.PageRank{Alpha: alpha} }

// DegreeUtility returns the preferential-attachment utility (candidate
// out-degree).
func DegreeUtility() UtilityFunction { return utility.Degree{} }

// MechanismKind selects the private selection algorithm.
type MechanismKind int

// Available mechanisms.
const (
	// MechanismExponential is the exponential mechanism (Definition 5):
	// exact recommendation probabilities, exact expected accuracy.
	MechanismExponential MechanismKind = iota
	// MechanismLaplace is the Laplace mechanism (Definition 6): argmax of
	// Laplace-noised utilities.
	MechanismLaplace
	// MechanismSmoothing is the sampling/linear-smoothing mechanism A_S(x)
	// of Appendix F, mixing the optimal recommender with the uniform one.
	MechanismSmoothing
	// MechanismNone disables privacy: the optimal recommender R_best.
	MechanismNone
)

// String implements fmt.Stringer.
func (k MechanismKind) String() string {
	switch k {
	case MechanismExponential:
		return "exponential"
	case MechanismLaplace:
		return "laplace"
	case MechanismSmoothing:
		return "smoothing"
	case MechanismNone:
		return "none"
	default:
		return fmt.Sprintf("MechanismKind(%d)", int(k))
	}
}

// Recommendation is one private recommendation together with its quality
// diagnostics.
type Recommendation struct {
	// Target is the node the recommendation is for.
	Target int
	// Node is the recommended candidate.
	Node int
	// Utility is the (non-private, internal) utility of the recommended
	// candidate; callers exposing this value to users leak information and
	// void the privacy guarantee.
	Utility float64
	// MaxUtility is the best candidate's utility (R_best's score).
	MaxUtility float64
}

// snapState bundles every piece of Recommender state derived from one graph
// snapshot: the immutable store itself (heap CSR or mmap-backed, see
// graph.Store), the utility sensitivity Δf on it, the smoothing weight x
// (MechanismSmoothing only), and the cache epoch. A live Rebuild swaps the
// bundle atomically, so concurrent requests always observe a consistent
// (snapshot, Δf, x, epoch) quadruple; without live mutations the bundle
// built at construction serves for the Recommender's whole life.
type snapState struct {
	snap  graph.Store
	sens  float64
	x     float64
	epoch uint64
	// mech is the mechanism instance for this state, built once so the
	// serving hot path avoids a per-call interface allocation.
	mech mechanism.StreamMechanism
	// walLSN is the newest WAL record folded into snap (0 when no WAL is
	// configured or the log is empty). Persisting this state durably
	// makes WAL records up to walLSN reclaimable; see persistSwapped.
	walLSN uint64
}

// Recommender makes differentially private social recommendations over a
// fixed snapshot of a graph. It is safe for concurrent use after creation;
// per-call randomness is supplied through an internal mutex-free split RNG
// keyed by target, so results are deterministic for a fixed seed.
//
// An optional utility-vector cache (WithCache) memoizes the deterministic
// pre-processing stage shared by Recommend, RecommendTopK, ExpectedAccuracy,
// and AccuracyCeiling; see cache.go for why this is safe under differential
// privacy.
type Recommender struct {
	util    UtilityFunction
	kind    MechanismKind
	epsilon float64
	seed    int64

	state atomic.Pointer[snapState]
	// cache is the utility-vector cache, nil when caching is off. WithCache
	// sets it at construction and it never changes afterwards.
	cache *vectorCache

	// drawSeq numbers the per-request RNG streams RequestRNG hands out.
	drawSeq atomic.Uint64

	// live is non-nil when the Recommender accepts streaming mutations: it
	// holds the log of mutations since the serving snapshot; see live.go.
	live *liveState

	// ownedSnap is the snapshot file this Recommender opened itself (via
	// WithSnapshotFile) and therefore closes in Close.
	ownedSnap *graph.Mapped

	// persistPath, when non-empty, is where every swapped-in snapshot is
	// atomically persisted (temp file + rename); see WithSnapshotPersist.
	// persistMu serializes the disk writes outside the rebuild lock — a slow
	// persist must not stall snapshot swaps — and guards persistEpoch,
	// which keeps a delayed older write from clobbering a newer snapshot.
	persistPath  string
	persistMu    sync.Mutex
	persistEpoch uint64
	persists     atomic.Uint64
	persistErrs  atomic.Uint64

	// wal is the write-ahead log making mutations crash-safe (nil unless
	// WithWAL); health tracks persistently failing subsystems for
	// degraded-mode reporting (see Degraded).
	wal    *wal.WAL
	health healthTracker

	// pendingLive and the rebuild knobs carry the live-mutation options
	// from option application to construction, and pendingSnapshotFile
	// does the same for WithSnapshotFile.
	pendingLive         bool
	pendingInterval     time.Duration
	pendingMaxPending   int
	pendingSnapshotFile string
	pendingWALDir       string
	pendingFsync        FsyncMode
	pendingFsyncSet     bool
}

// Errors returned by the Recommender.
var (
	ErrNilGraph     = errors.New("socialrec: nil graph")
	ErrNoCandidates = errors.New("socialrec: target has no positive-utility candidate")
	ErrBadTarget    = errors.New("socialrec: target out of range")
	// ErrNotLive is returned by the mutation API (AddEdge, RemoveEdge,
	// AddNode, Rebuild, CurrentGraph) when the Recommender was not built
	// with WithLiveMutations (or one of the rebuild knobs implying it).
	ErrNotLive = errors.New("socialrec: live mutations not enabled (construct with WithLiveMutations)")
)

// Graph mutation errors, re-exported so callers of the live mutation API
// can classify failures without importing the internal graph package.
var (
	ErrNodeRange     = graph.ErrNodeRange
	ErrSelfLoop      = graph.ErrSelfLoop
	ErrDuplicateEdge = graph.ErrDuplicateEdge
	ErrMissingEdge   = graph.ErrMissingEdge
)

// NewRecommender builds a Recommender over a snapshot of g. The default
// configuration is the exponential mechanism with ε = 1 and the
// common-neighbors utility. Mutating g afterwards does not affect the
// Recommender: its snapshot changes only through the live mutation API
// (WithLiveMutations and Rebuild). To serve a different graph without it,
// build a new Recommender.
//
// With WithSnapshotFile, g must be nil: the Recommender cold-starts from
// the named .srsnap file instead of an in-memory graph, owns the opened
// snapshot, and releases it in Close.
func NewRecommender(g *Graph, opts ...Option) (*Recommender, error) {
	r, err := configureRecommender(opts)
	if err != nil {
		return nil, err
	}
	if g == nil {
		if r.pendingSnapshotFile == "" {
			return nil, ErrNilGraph
		}
		if err := r.initFromSnapshotFile(); err != nil {
			return nil, err
		}
		return r, nil
	}
	if r.pendingSnapshotFile != "" {
		return nil, fmt.Errorf("socialrec: WithSnapshotFile(%q) conflicts with a non-nil graph; pass nil", r.pendingSnapshotFile)
	}
	// The snapshot is a copy, so mutating the caller's graph never affects
	// the Recommender.
	st, err := r.buildStateFromSnap(g.Snapshot(), 0)
	if err != nil {
		return nil, err
	}
	if err := r.finishInit(st); err != nil {
		return nil, err
	}
	return r, nil
}

// configureRecommender applies the option list over the defaults and
// validates the cross-option invariants.
func configureRecommender(opts []Option) (*Recommender, error) {
	r := &Recommender{
		util:    utility.CommonNeighbors{},
		kind:    MechanismExponential,
		epsilon: 1,
		seed:    1,
	}
	for _, opt := range opts {
		if err := opt(r); err != nil {
			return nil, err
		}
	}
	if r.kind != MechanismNone && !(r.epsilon > 0) {
		return nil, fmt.Errorf("socialrec: epsilon %g must be positive", r.epsilon)
	}
	if r.pendingFsyncSet && r.pendingWALDir == "" {
		return nil, errors.New("socialrec: WithWALSync requires WithWAL")
	}
	return r, nil
}

// initFromSnapshotFile cold-starts the Recommender from the WithSnapshotFile
// path, taking ownership of the opened snapshot.
func (r *Recommender) initFromSnapshotFile() error {
	snap, err := graph.OpenMapped(r.pendingSnapshotFile)
	if err != nil {
		return err
	}
	st, err := r.buildStateFromSnap(snap, 0)
	if err != nil {
		snap.Close()
		return err
	}
	if err := r.finishInit(st); err != nil {
		snap.Close()
		return err
	}
	r.ownedSnap = snap
	return nil
}

// finishInit installs the initial snapState and — when live mutations were
// requested — starts the live graph on its snapshot and the background
// rebuilder. With WithWAL it first opens the log and replays any records
// that survived a crash, so the initial serving snapshot already reflects
// every acknowledged mutation.
func (r *Recommender) finishInit(st *snapState) error {
	var mut *graph.MutableGraph
	if r.pendingLive {
		mut = graph.NewMutable(st.snap)
	}
	var w *wal.WAL
	if r.pendingWALDir != "" {
		var recs []wal.Record
		var err error
		w, recs, err = wal.Open(r.pendingWALDir, wal.Options{Policy: r.pendingFsync.walPolicy()})
		if err != nil {
			return fmt.Errorf("socialrec: opening WAL %q: %w", r.pendingWALDir, err)
		}
		// Acknowledged mutations outlived the previous process: fold them
		// into the snapshot before it serves. Replay mutates pre-noise
		// graph state only, so it has no DP cost — no noise is drawn and
		// nothing is released during recovery.
		if st, err = r.replayWAL(mut, st, recs); err != nil {
			w.Close()
			return err
		}
		st.walLSN = w.LastLSN()
		r.wal = w
	}
	r.state.Store(st)
	if mut == nil {
		return nil
	}
	if w != nil {
		// The journal hook runs inside the mutation critical section, so
		// WAL order matches delta-log order record for record, and a
		// mutation is only acknowledged once its record is durable per the
		// fsync policy. An append failure vetoes the mutation and marks the
		// WAL subsystem degraded.
		mut.SetJournal(func(d graph.Delta) error {
			if _, err := w.Append(walRecord(d)); err != nil {
				r.health.set(subsystemWAL, err)
				return fmt.Errorf("socialrec: WAL append: %w", err)
			}
			r.health.clear(subsystemWAL)
			return nil
		})
	}
	lv := &liveState{
		mut:        mut,
		interval:   r.pendingInterval,
		maxPending: r.pendingMaxPending,
		kick:       make(chan struct{}, 1),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	if lv.interval <= 0 {
		lv.interval = DefaultRebuildInterval
	}
	if lv.maxPending <= 0 {
		lv.maxPending = DefaultMaxPendingDeltas
	}
	r.live = lv
	go r.rebuildLoop(lv)
	return nil
}

// buildStateFromSnap computes every snapshot-derived quantity for snap at
// the given cache epoch: NewRecommender hands it the graph's CSR, the
// snapshot-file constructor a heap or mmap-backed store, and the live
// rebuilder and WAL replay patched CSRs.
func (r *Recommender) buildStateFromSnap(snap graph.Store, epoch uint64) (*snapState, error) {
	st := &snapState{snap: snap, epoch: epoch}
	st.sens = r.util.Sensitivity(st.snap)
	if r.kind == MechanismSmoothing {
		x, err := mechanism.SmoothingXForEpsilon(r.epsilon, st.snap.NumNodes())
		if err != nil {
			return nil, err
		}
		st.x = x
	}
	st.mech = r.buildMech(st)
	return st, nil
}

// CacheStats returns a snapshot of the utility-vector cache's counters. The
// second return is false when no cache is enabled.
func (r *Recommender) CacheStats() (CacheStats, bool) {
	c := r.cache
	if c == nil {
		return CacheStats{}, false
	}
	return c.stats(), true
}

// Epsilon returns the configured privacy parameter.
func (r *Recommender) Epsilon() float64 { return r.epsilon }

// Sensitivity returns the Δf in use for the configured utility.
func (r *Recommender) Sensitivity() float64 { return r.state.Load().sens }

// Utility returns the configured utility function.
func (r *Recommender) Utility() UtilityFunction { return r.util }

// Mechanism returns the configured mechanism kind.
func (r *Recommender) Mechanism() MechanismKind { return r.kind }

func (r *Recommender) buildMech(st *snapState) mechanism.StreamMechanism {
	switch r.kind {
	case MechanismLaplace:
		return mechanism.Laplace{Epsilon: r.epsilon, Sensitivity: st.sens}
	case MechanismSmoothing:
		return mechanism.Smoothing{X: st.x, Base: mechanism.Best{}}
	case MechanismNone:
		return mechanism.Best{}
	default:
		return mechanism.Exponential{Epsilon: r.epsilon, Sensitivity: st.sens}
	}
}

// computeVector runs the deterministic pre-processing stage for target.
// stream.Encode drains the utility's kernel stream into exact-size
// gap-coded node IDs and level-coded values (per-node past 256 distinct
// utilities): nonzero support only, O(nnz) work and memory, no length-n
// pass. For the
// exponential mechanism behind a cache it adds the sparse cumulative-weight
// form that turns each later draw into a binary search over per-block
// prefix sums and a re-accumulation of at most one block. The CDF aliases
// the entry's code and val and stores one prefix sum per 32 support
// entries, so it adds 0.25 B per nonzero to the entry. All of it is a pure
// function of the snapshot and the public (ε, Δf), so precomputing it does
// not change the mechanism's output distribution.
func (r *Recommender) computeVector(st *snapState, target int) (*cachedVector, error) {
	sc, err := r.util.StreamSparse(st.snap, target)
	if err != nil {
		return nil, err
	}
	ids, code, val := stream.Encode(sc)
	sc.Close()
	cv := &cachedVector{
		ids:   ids,
		code:  code,
		val:   val,
		umax:  utility.Max(val),
		ncand: utility.CandidateCount(st.snap, target),
	}
	// The CDF is only worth materializing when a cache will amortize it;
	// otherwise the streaming draw does the same work once.
	if cv.umax > 0 && r.cache != nil {
		if e, ok := st.mech.(mechanism.Exponential); ok {
			cdf, err := e.SparseCDF(cv.sparseVec())
			if err != nil {
				return nil, err
			}
			cv.cdf = cdf
		}
	}
	return cv, nil
}

// vector returns the sparse utility form over the candidate domain (all
// nodes except the target and its existing out-neighbors): the nonzero
// support, the candidate count and the maximum utility. Results come from
// the cache when one is enabled; the returned slices are shared and must
// not be mutated.
func (r *Recommender) vector(st *snapState, target int) (*cachedVector, error) {
	if target < 0 || target >= st.snap.NumNodes() {
		return nil, fmt.Errorf("%w: %d", ErrBadTarget, target)
	}
	c := r.cache
	if c != nil {
		if cv, ok := c.get(st.epoch, target); ok {
			return cv.check(target)
		}
	}
	cv, err := r.computeVector(st, target)
	if err != nil {
		return nil, err
	}
	if c != nil {
		c.put(st.epoch, target, cv)
	}
	return cv.check(target)
}

func (cv *cachedVector) check(target int) (*cachedVector, error) {
	if cv.umax == 0 {
		return nil, fmt.Errorf("%w: node %d", ErrNoCandidates, target)
	}
	return cv, nil
}

// Recommend returns one private recommendation for the target node. Its
// randomness is a stream keyed by (seed, target), not fresh per call: on one
// snapshot, repeating Recommend for a target returns the same pick. Callers
// that need independent draws for one target — a serving layer answering
// repeated requests — use RecommendWithRNG(target, r.RequestRNG()); each
// such draw is a separate release, and ε composes additively across them.
func (r *Recommender) Recommend(target int) (Recommendation, error) {
	return r.recommend(target, distribution.SplitN(r.seed, "recommend", target))
}

// RecommendWithRNG is Recommend with caller-supplied randomness, for
// deterministic tests and simulations.
func (r *Recommender) RecommendWithRNG(target int, rng *rand.Rand) (Recommendation, error) {
	return r.recommend(target, rng)
}

// RequestRNG returns a fresh RNG stream for one request. Unlike the
// target-keyed stream Recommend uses internally, streams from successive
// RequestRNG calls are mutually independent even for the same target, which
// is what a serving layer needs: with Recommend, every request for a hot
// target would get the same pick. Streams are split from the Recommender's
// seed by a global sequence number, so a fixed seed plus a fixed request
// order still reproduces exactly.
func (r *Recommender) RequestRNG() *rand.Rand {
	return distribution.SplitN(r.seed, "request", int(r.drawSeq.Add(1)))
}

func (r *Recommender) recommend(target int, rng *rand.Rand) (Recommendation, error) {
	st := r.state.Load()
	src, err := r.openSource(st, target, false)
	if err != nil {
		return Recommendation{}, err
	}
	defer src.sc.Close()
	var pick mechanism.StreamPick
	if src.cv != nil && src.cv.cdf != nil {
		// The cached exponential CDF: the same single rng.Float64() and
		// inversion as Exponential.RecommendStream, by binary search over
		// the block sums and a re-accumulation inside one block.
		pick = src.cv.streamPick(mechanism.SampleSparseCDF(src.cv.cdf, rng))
	} else if pick, err = st.mech.RecommendStream(src.sc, src.ncand, rng); err != nil {
		return Recommendation{}, err
	}
	return src.recommendation(st.snap, target, pick), nil
}

// ExpectedAccuracy returns the expected accuracy (Definition 2: expected
// utility over u_max) of the configured mechanism for the target. It is
// exact for the exponential, smoothing, and non-private mechanisms and a
// 1,000-trial Monte-Carlo estimate for Laplace.
func (r *Recommender) ExpectedAccuracy(target int) (float64, error) {
	st := r.state.Load()
	cv, err := r.vector(st, target)
	if err != nil {
		return 0, err
	}
	if d, ok := st.mech.(mechanism.SparseDistribution); ok {
		return mechanism.ExpectedAccuracySparse(d, cv.sparseVec())
	}
	rng := distribution.SplitN(r.seed, "accuracy", target)
	sc := cv.slice()
	return mechanism.MonteCarloAccuracyStream(st.mech, &sc, cv.ncand, mechanism.DefaultLaplaceTrials, rng)
}

// AccuracyCeiling returns the Corollary 1 upper bound on the expected
// accuracy ANY ε-differentially private recommender (not just the
// configured one) can achieve for this target — the paper's "Theoretical
// Bound" curve. A ceiling near zero means privacy makes useful
// recommendations for this node impossible.
func (r *Recommender) AccuracyCeiling(target int) (float64, error) {
	st := r.state.Load()
	cv, err := r.vector(st, target)
	if err != nil {
		return 0, err
	}
	t := r.util.RewireCount(cv.umax, st.snap.OutDegree(target))
	return bounds.TightestAccuracyBoundSparse(cv.values(), cv.ncand, r.epsilon, t)
}

// EpsilonFloor returns the minimum ε (leading order) at which a
// constant-accuracy recommendation is possible for a target of the given
// degree under the configured utility, per Theorems 2 and 3. The result is
// NaN for utilities without a specific theorem (use Theorem 1 via
// GenericEpsilonFloor instead).
func (r *Recommender) EpsilonFloor(targetDegree int) float64 {
	snap := r.state.Load().snap
	n := snap.NumNodes()
	switch u := r.util.(type) {
	case utility.CommonNeighbors:
		eps, err := bounds.Theorem2Epsilon(n, targetDegree)
		if err != nil {
			return math.NaN()
		}
		return eps
	case utility.WeightedPaths:
		eps, err := bounds.Theorem3Epsilon(n, targetDegree, snap.MaxDegree(), u.Gamma)
		if err != nil {
			return math.NaN()
		}
		return eps
	default:
		return math.NaN()
	}
}

// GenericEpsilonFloor returns the Theorem 1 floor: the minimum ε at which
// any exchangeable, concentrated utility function can support constant
// accuracy on this graph, given its maximum degree.
func (r *Recommender) GenericEpsilonFloor() float64 {
	snap := r.state.Load().snap
	eps, err := bounds.Theorem1Epsilon(snap.NumNodes(), snap.MaxDegree())
	if err != nil {
		return math.NaN()
	}
	return eps
}
