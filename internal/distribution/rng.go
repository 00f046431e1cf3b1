package distribution

import (
	"hash/fnv"
	"math/rand"
)

// NewRNG returns a deterministic *rand.Rand seeded from the given root seed.
// All experiment code in this repository threads RNGs created here so that
// every figure regenerates byte-identically across runs.
func NewRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// SplitSeed derives a child seed from a parent seed and a label, so that
// independent experiment stages (graph generation, target sampling, Laplace
// trials, ...) consume non-overlapping random streams. The derivation hashes
// the label with FNV-1a and mixes it into the parent seed; it is stable
// across runs and platforms.
func SplitSeed(parent int64, label string) int64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(uint64(parent) >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(label))
	return int64(h.Sum64())
}

// Split returns a fresh deterministic RNG derived from parent and label.
func Split(parent int64, label string) *rand.Rand {
	return NewRNG(SplitSeed(parent, label))
}

// SplitN is Split with an extra numeric discriminant mixed into the label
// hash, and a splitmix64 source instead of math/rand's default. The default
// source pays an O(607)-word seeding pass per construction — ~10µs, which
// dwarfs an entire cached recommendation — while splitmix64 seeds in O(1)
// and passes BigCrush. Streams differ from Split's for the same inputs;
// both honor the same contract: deterministic per (parent, label, n),
// stable across runs and platforms. Serving hot paths (Recommend and
// friends) and the experiments' per-target Laplace trials use SplitN; the
// experiments' target sampling keeps Split so the sampled targets stay
// the same.
func SplitN(parent int64, label string, n int) *rand.Rand {
	h := fnv.New64a()
	var buf [16]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(uint64(parent) >> (8 * i))
		buf[8+i] = byte(uint64(n) >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(label))
	return rand.New(&splitMix64{state: h.Sum64()})
}

// splitMix64 is Steele et al.'s SplitMix64 generator as a rand.Source64.
type splitMix64 struct{ state uint64 }

func (s *splitMix64) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitMix64) Int63() int64    { return int64(s.Uint64() >> 1) }
func (s *splitMix64) Seed(seed int64) { s.state = uint64(seed) }
