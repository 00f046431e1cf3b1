package socialrec

import (
	"socialrec/internal/dataset"
	"socialrec/internal/distribution"
	"socialrec/internal/gen"
	"socialrec/internal/graph"
)

// ReadGraphFile loads a SNAP-style edge list ('#' comments, one "from to"
// pair per line) from disk, transparently decompressing ".gz" files. Node
// labels are remapped to dense IDs in first-seen order.
func ReadGraphFile(path string, directed bool) (*Graph, error) {
	g, _, err := dataset.ReadFile(path, dataset.Options{Directed: directed})
	return g, err
}

// Snapshot and codec errors re-exported from the storage layer.
var (
	ErrSnapshotFormat   = graph.ErrSnapshotFormat
	ErrSnapshotVersion  = graph.ErrSnapshotVersion
	ErrSnapshotChecksum = graph.ErrSnapshotChecksum
)

// WriteSnapshotFile persists a binary .srsnap snapshot of g at path,
// written atomically (temp file + rename). WithSnapshotFile cold-starts a
// serving process from the file in milliseconds — no edge-list re-parse,
// no adjacency rebuild — serving it memory-mapped, straight from the page
// cache, where the platform allows.
func WriteSnapshotFile(path string, g *Graph) error {
	if g == nil {
		return ErrNilGraph
	}
	return graph.WriteSnapshotFile(path, g.Snapshot())
}

// GenerateSocialGraph returns a synthetic undirected social graph with n
// nodes, about m edges, and the heavy-tailed degree distribution typical of
// friendship networks. Deterministic in seed.
func GenerateSocialGraph(n, m int, seed int64) (*Graph, error) {
	return gen.PowerLawConfiguration(n, m, 1, 1.5, distribution.NewRNG(seed))
}

// GenerateFollowerGraph returns a synthetic directed follower graph with n
// nodes and about m edges, with heavy-tailed out-degrees and a celebrity
// hub, shaped like the paper's Twitter sample. Deterministic in seed.
func GenerateFollowerGraph(n, m int, seed int64) (*Graph, error) {
	return gen.DirectedPreferentialAttachment(n, m, m/50, 2.0, distribution.NewRNG(seed))
}
