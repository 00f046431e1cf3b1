package stream

import (
	"math"
	"slices"
)

// levelSlots is the size of Encode's table of distinct utilities: twice
// MaxLevels, so open addressing keeps probes short at the fullest.
const levelSlots = 2 * MaxLevels

// levelTable is a stack-resident hash set of distinct utilities keyed by
// their float64 bits, which for the positive values a Scorer yields is
// exactly float64 equality. A zero key marks an empty slot; +0 is never
// stored.
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

// Encode drains sc into a materialized support (idx, code, val) under the
// convention in stream.go: the level-coded form when sc yields at most
// MaxLevels distinct utilities, one utility per entry otherwise. It makes
// two passes — the first counts the entries and collects the distinct
// values into a stack table, the second fills exactly-sized slices — so
// the result keeps no slack capacity and nothing else is allocated. sc is
// rewound first and left exhausted; the caller still owns and closes it.
// This is the serving cache's miss path, not a per-request path.
func Encode(sc Scorer) (idx []int32, code []uint8, val []float64) {
	var t levelTable
	var levels [MaxLevels]float64
	d, n, coded := 0, 0, true
	sc.Reset()
	for {
		_, x, ok := sc.Next()
		if !ok {
			break
		}
		n++
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
		if s := t.slot(bits); t.keys[s] == 0 {
			if d == MaxLevels {
				coded = false
				continue
			}
			t.keys[s] = bits
			levels[d] = x
			d++
		}
	}
	idx = make([]int32, 0, n)
	if coded {
		code = make([]uint8, 0, n)
		val = slices.Clone(levels[:d])
		slices.Sort(val)
		for k, x := range val {
			t.code[t.slot(math.Float64bits(x))] = uint8(k)
		}
	} else {
		val = make([]float64, 0, n)
	}
	sc.Reset()
	for {
		i, x, ok := sc.Next()
		if !ok {
			return idx, code, val
		}
		idx = append(idx, i)
		if coded {
			code = append(code, t.code[t.slot(math.Float64bits(x))])
		} else {
			val = append(val, x)
		}
	}
}
