package stream

import (
	"encoding/binary"
	"math"
	"slices"
	"sync"
)

// levelSlots is the size of Encode's table of distinct utilities: twice
// MaxLevels, so open addressing keeps probes short at the fullest.
const levelSlots = 2 * MaxLevels

// levelTable is a stack-resident hash map from distinct utilities, keyed by
// their float64 bits (which for the positive values a Scorer yields is
// exactly float64 equality), to their first-seen numbers. A zero key
// marks an empty slot; +0 is never stored.
type levelTable struct {
	keys [levelSlots]uint64
	code [levelSlots]uint8
}

// slot returns the slot holding bits, or the empty slot where it belongs.
func (t *levelTable) slot(bits uint64) int {
	s := int(bits * 0x9E3779B97F4A7C15 >> (64 - 9)) // 9 = log2(levelSlots)
	for t.keys[s] != 0 && t.keys[s] != bits {
		s = (s + 1) & (levelSlots - 1)
	}
	return s
}

// encodeScratch is Encode's pooled staging: the gap-coded IDs and block
// offsets, each entry's utility and its level's first-seen number, grown
// in place across cache misses. Encode is not on the per-request path, so
// the scratch sits in a plain sync.Pool, not a registered Pool.
type encodeScratch struct {
	gaps  []byte
	off   []uint32
	val   []float64
	first []uint8
}

var encodePool = sync.Pool{New: func() any { return new(encodeScratch) }}

// Encode drains sc into a materialized support (ids, code, val) under the
// convention in stream.go: gap-coded IDs, and the level-coded form when sc
// yields at most MaxLevels distinct utilities, one utility per entry
// otherwise. One walk stages everything in pooled scratch, numbering the
// levels in the order they are first seen; after the walk the levels are
// sorted, the first-seen numbers remapped to ascending codes, and the
// result copied into exactly-sized slices, so it keeps no slack capacity.
// sc is rewound first and left exhausted; the caller still owns and
// closes it. This is the serving cache's miss path, not a per-request
// path.
func Encode(sc Scorer) (ids IDs, code []uint8, val []float64) {
	es := encodePool.Get().(*encodeScratch)
	defer encodePool.Put(es)
	gaps, off, vals, first := es.gaps[:0], es.off[:0], es.val[:0], es.first[:0]
	var t levelTable
	var levels [MaxLevels]float64
	d, coded := 0, true
	var prev uint32
	sc.Reset()
	for {
		i, x, ok := sc.Next()
		if !ok {
			break
		}
		g := uint32(i)
		if len(vals)%IDBlock == 0 {
			off = append(off, uint32(len(gaps)))
		} else {
			g -= prev
		}
		prev = uint32(i)
		gaps = binary.AppendUvarint(gaps, uint64(g))
		vals = append(vals, x)
		if !coded {
			continue
		}
		if !(x > 0) {
			// A value the Scorer contract rules out: a NaN has no place
			// in an ordered table, and -0 would share +0's level.
			coded = false
			continue
		}
		bits := math.Float64bits(x)
		s := t.slot(bits)
		if t.keys[s] == 0 {
			if d == MaxLevels {
				coded = false
				continue
			}
			t.keys[s], t.code[s] = bits, uint8(d)
			levels[d] = x
			d++
		}
		first = append(first, t.code[s])
	}
	es.gaps, es.off, es.val, es.first = gaps, off, vals, first

	if len(vals) > 0 {
		ids.Gaps = make([]byte, len(gaps))
		copy(ids.Gaps, gaps)
		ids.Off = make([]uint32, len(off))
		copy(ids.Off, off)
	}
	if !coded {
		val = make([]float64, len(vals))
		copy(val, vals)
		return ids, nil, val
	}
	val = make([]float64, d)
	copy(val, levels[:d])
	slices.Sort(val)
	var perm [MaxLevels]uint8
	for f, x := range levels[:d] {
		r, _ := slices.BinarySearch(val, x)
		perm[f] = uint8(r)
	}
	code = make([]uint8, len(first))
	for j, f := range first {
		code[j] = perm[f]
	}
	return ids, code, val
}
