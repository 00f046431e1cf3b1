package socialrec

import (
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"socialrec/internal/fault"
)

// TestCrashRecoveryHammer is the kill -9 simulation of the durability
// contract: across >100 randomized iterations it applies a random mutation
// script to a WAL-backed Recommender, "crashes" (abandons the process
// state, keeping only what is on disk), optionally tears the log tail the
// way an interrupted append would, and then verifies that recovery —
// from the initial graph, or from a persisted snapshot plus the surviving
// WAL suffix — reconstructs a graph bit-identical to the acknowledged
// pre-crash state and serves bit-identical recommendations.
func TestCrashRecoveryHammer(t *testing.T) {
	const iterations = 120
	for it := 0; it < iterations; it++ {
		hammerIteration(t, it)
	}
}

// hammerBase builds the deterministic initial graph of one iteration: a
// ring, so every target has candidates and restart-from-scratch can
// reconstruct it exactly.
func hammerBase(nodes int) *Graph {
	g := NewGraph(nodes)
	for i := 0; i < nodes; i++ {
		if err := g.AddEdge(i, (i+1)%nodes); err != nil {
			panic(err)
		}
	}
	return g
}

func hammerIteration(t *testing.T, it int) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(1000 + it)))
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	snapPath := filepath.Join(dir, "g.srsnap")

	nodes := 5 + rng.Intn(8)
	usePersist := rng.Intn(2) == 0
	opts := []Option{
		WithSeed(int64(it)),
		WithWAL(walDir),
		WithWALSync(FsyncOff),
		WithRebuildInterval(time.Hour),
	}
	if usePersist {
		opts = append(opts, WithSnapshotPersist(snapPath))
	}
	rec, err := NewRecommender(hammerBase(nodes), opts...)
	if err != nil {
		t.Fatalf("iteration %d: NewRecommender: %v", it, err)
	}
	// rec is deliberately never Closed before recovery — the crash is the
	// point — but release its goroutines and descriptors when the test ends.
	t.Cleanup(func() { rec.Close() })

	// Random mutation script. want shadows exactly the acknowledged
	// mutations: an op counts if and only if rec returned nil, which is the
	// WAL's ack contract.
	want := hammerBase(nodes)
	steps := 20 + rng.Intn(60)
	for s := 0; s < steps; s++ {
		switch op := rng.Intn(12); {
		case op == 0:
			if id, err := rec.AddNode(); err == nil {
				if got := want.AddNode(); got != id {
					t.Fatalf("iteration %d: shadow node id %d, rec %d", it, got, id)
				}
			}
		case op <= 3:
			u, v := rng.Intn(want.NumNodes()), rng.Intn(want.NumNodes())
			if err := rec.RemoveEdge(u, v); err == nil {
				if err := want.RemoveEdge(u, v); err != nil {
					t.Fatalf("iteration %d: shadow diverged on RemoveEdge(%d,%d): %v", it, u, v, err)
				}
			}
		default:
			u, v := rng.Intn(want.NumNodes()), rng.Intn(want.NumNodes())
			if err := rec.AddEdge(u, v); err == nil {
				if err := want.AddEdge(u, v); err != nil {
					t.Fatalf("iteration %d: shadow diverged on AddEdge(%d,%d): %v", it, u, v, err)
				}
			}
		}
		// Occasional mid-script rebuilds: with persistence they snapshot and
		// truncate covered WAL segments, without it they just patch deltas in —
		// recovery must be exact either way.
		if rng.Intn(20) == 0 {
			if err := rec.Rebuild(); err != nil {
				t.Fatalf("iteration %d: Rebuild: %v", it, err)
			}
		}
	}

	// Crash. Two thirds of iterations also tear the log tail, simulating a
	// record that was mid-append (never acknowledged) when the process died.
	if rng.Intn(3) != 0 {
		tearWALTail(t, rng, walDir)
	}

	recOpts := []Option{
		WithSeed(int64(it)),
		WithWAL(walDir),
		WithWALSync(FsyncOff),
		WithRebuildInterval(time.Hour),
	}
	var rec2 *Recommender
	if _, statErr := os.Stat(snapPath); statErr == nil {
		// A persisted snapshot exists: restart from it plus the WAL suffix.
		rec2, err = NewRecommender(nil, append(recOpts, WithSnapshotFile(snapPath))...)
	} else {
		// No snapshot survived: restart from the initial graph, replaying
		// the whole log.
		rec2, err = NewRecommender(hammerBase(nodes), recOpts...)
	}
	if err != nil {
		t.Fatalf("iteration %d (persist=%v): recovery open: %v", it, usePersist, err)
	}
	defer rec2.Close()

	got, err := rec2.CurrentGraph()
	if err != nil {
		t.Fatalf("iteration %d: CurrentGraph after recovery: %v", it, err)
	}
	if !got.Equal(want) {
		t.Fatalf("iteration %d (persist=%v, steps=%d): recovered graph differs from acknowledged state\ngot:  %v\nwant: %v",
			it, usePersist, steps, got, want)
	}
	if n := rec2.PendingDeltas(); n != 0 {
		t.Fatalf("iteration %d: %d deltas pending after recovery, want 0", it, n)
	}

	// Bit-identical serving, not just bit-identical structure: a fresh
	// recommender over the acknowledged graph must draw the same
	// recommendations (same seed, same split-RNG streams).
	ref, err := NewRecommender(want.Clone(), WithSeed(int64(it)))
	if err != nil {
		t.Fatalf("iteration %d: reference recommender: %v", it, err)
	}
	for target := 0; target < want.NumNodes(); target++ {
		a, aerr := rec2.Recommend(target)
		b, berr := ref.Recommend(target)
		if (aerr == nil) != (berr == nil) {
			t.Fatalf("iteration %d target %d: recovered err %v, reference err %v", it, target, aerr, berr)
		}
		if aerr == nil && a != b {
			t.Fatalf("iteration %d target %d: recovered draw %+v != reference %+v", it, target, a, b)
		}
	}
}

// tearWALTail appends torn-write debris to the newest WAL segment: raw
// garbage, a frame header whose payload was cut short, or a complete frame
// with a corrupt checksum. All three are what an interrupted append leaves
// behind; none were ever acknowledged, so recovery must drop them exactly.
func tearWALTail(t *testing.T, rng *rand.Rand, walDir string) {
	t.Helper()
	ents, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	var last string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".wal") {
			last = filepath.Join(walDir, e.Name())
		}
	}
	if last == "" {
		return
	}
	f, err := os.OpenFile(last, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	write := func(b []byte) {
		if _, err := f.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	switch rng.Intn(3) {
	case 0: // raw garbage bytes
		b := make([]byte, 1+rng.Intn(24))
		rng.Read(b)
		write(b)
	case 1: // header promising a full payload, payload cut short
		hdr := make([]byte, 8)
		binary.LittleEndian.PutUint32(hdr, 16)
		binary.LittleEndian.PutUint32(hdr[4:], rng.Uint32())
		write(hdr)
		write(make([]byte, rng.Intn(16)))
	case 2: // complete, plausibly-sized frame with a corrupt checksum
		frame := make([]byte, 8+3)
		binary.LittleEndian.PutUint32(frame, 3)
		binary.LittleEndian.PutUint32(frame[4:], rng.Uint32())
		rng.Read(frame[8:])
		write(frame)
	}
}

// TestConcurrentMutationFailpointHammer drives concurrent mutators,
// readers, and rebuilds against a WAL-backed Recommender while failpoints
// fire probabilistically on the WAL append and rebuild paths, under -race.
// Each worker owns a disjoint node range, so acknowledged operations
// commute across workers and the final graph is checkable against a shadow
// replay; a restart from the surviving WAL must reach the same graph.
func TestConcurrentMutationFailpointHammer(t *testing.T) {
	defer fault.Reset()
	const (
		nodes   = 64
		workers = 4
		span    = nodes / workers
		opsEach = 150
	)
	walDir := t.TempDir()
	rec, err := NewRecommender(ringGraph(nodes),
		WithSeed(11),
		WithWAL(walDir),
		WithWALSync(FsyncOff),
		WithRebuildInterval(time.Hour))
	if err != nil {
		t.Fatal(err)
	}

	// Probabilistic failures on the ack path and the rebuild path. Vetoed
	// mutations return errors (and are excluded from the shadow); rebuilds
	// retry and occasionally exhaust, leaving their batch pending for the
	// next rebuild.
	fault.Arm("wal.append", fault.Config{Mode: fault.Error, Prob: 0.15, Seed: 3})
	fault.Arm("live.rebuild", fault.Config{Mode: fault.Error, Prob: 0.3, Seed: 4})

	type edgeOp struct {
		add  bool
		u, v int
	}
	acked := make([][]edgeOp, workers)
	done := make(chan struct{})
	var mutWg, auxWg sync.WaitGroup

	for w := 0; w < workers; w++ {
		mutWg.Add(1)
		go func(w int) {
			defer mutWg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			lo := w * span
			for i := 0; i < opsEach; i++ {
				u := lo + rng.Intn(span)
				v := lo + rng.Intn(span)
				if rng.Intn(10) < 7 {
					if err := rec.AddEdge(u, v); err == nil {
						acked[w] = append(acked[w], edgeOp{add: true, u: u, v: v})
					}
				} else {
					if err := rec.RemoveEdge(u, v); err == nil {
						acked[w] = append(acked[w], edgeOp{add: false, u: u, v: v})
					}
				}
			}
		}(w)
	}
	// Readers: serving must never panic while mutations and failpoints fly.
	for r := 0; r < 2; r++ {
		auxWg.Add(1)
		go func(r int) {
			defer auxWg.Done()
			rng := rand.New(rand.NewSource(int64(200 + r)))
			for {
				select {
				case <-done:
					return
				default:
				}
				_, _ = rec.Recommend(rng.Intn(nodes))
				_, _ = rec.LiveStats()
				_ = rec.Degraded()
			}
		}(r)
	}
	// Background rebuilds race the mutators; injected failures here must
	// degrade, not corrupt.
	auxWg.Add(1)
	go func() {
		defer auxWg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			_ = rec.Rebuild()
			time.Sleep(time.Millisecond)
		}
	}()

	// Wait for the mutators, then stop the readers and rebuilder.
	mutatorsDone := make(chan struct{})
	go func() {
		defer close(mutatorsDone)
		mutWg.Wait()
	}()
	select {
	case <-mutatorsDone:
	case <-time.After(2 * time.Minute):
		close(done)
		t.Fatal("hammer wedged")
	}
	close(done)
	auxWg.Wait()

	fault.Reset()
	if err := rec.Rebuild(); err != nil {
		t.Fatalf("final rebuild after faults cleared: %v", err)
	}
	if deg := rec.Degraded(); deg != nil {
		t.Fatalf("still degraded after recovery: %v", deg)
	}

	// Shadow replay: worker ranges are disjoint, so applying each worker's
	// acknowledged ops in its own order reconstructs the graph regardless
	// of cross-worker interleaving.
	want := ringGraph(nodes)
	for w := range acked {
		for _, op := range acked[w] {
			if op.add {
				err = want.AddEdge(op.u, op.v)
			} else {
				err = want.RemoveEdge(op.u, op.v)
			}
			if err != nil {
				t.Fatalf("shadow diverged on worker %d op %+v: %v", w, op, err)
			}
		}
	}
	got, err := rec.CurrentGraph()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("live graph differs from acknowledged shadow after concurrent faulty run")
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Restart from the WAL alone (no persistence configured, so nothing was
	// truncated): every acknowledged mutation must replay.
	rec2, err := NewRecommender(ringGraph(nodes),
		WithSeed(11),
		WithWAL(walDir),
		WithWALSync(FsyncOff),
		WithRebuildInterval(time.Hour))
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer rec2.Close()
	got2, err := rec2.CurrentGraph()
	if err != nil {
		t.Fatal(err)
	}
	if !got2.Equal(want) {
		t.Fatal("restart after concurrent faulty run diverged from acknowledged state")
	}
}
