package stream

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

func TestSliceScorer(t *testing.T) {
	s := NewSlice([]int32{2, 5, 9}, []float64{1, 2.5, 3})
	var idx []int32
	var val []float64
	for {
		i, x, ok := s.Next()
		if !ok {
			break
		}
		idx = append(idx, i)
		val = append(val, x)
	}
	if len(idx) != 3 || idx[0] != 2 || idx[2] != 9 || val[1] != 2.5 {
		t.Fatalf("unexpected stream contents: idx=%v val=%v", idx, val)
	}
	// Reset rewinds to the start.
	s.Reset()
	i, x, ok := s.Next()
	if !ok || i != 2 || x != 1 {
		t.Fatalf("after Reset got (%d, %g, %v), want (2, 1, true)", i, x, ok)
	}
	// Exhausted streams keep returning ok=false.
	s.Reset()
	for range 3 {
		s.Next()
	}
	if _, _, ok := s.Next(); ok {
		t.Fatal("Next after exhaustion returned ok=true")
	}
	if _, _, ok := s.Next(); ok {
		t.Fatal("repeated Next after exhaustion returned ok=true")
	}
}

func TestPoolCounters(t *testing.T) {
	type scratch struct{ buf []float64 }
	p := NewPool("test.scratch", func() *scratch { return &scratch{} })
	a := p.Get()
	p.Put(a)
	b := p.Get()
	p.Put(b)
	st := p.stat()
	if st.Gets != 2 || st.Puts != 2 {
		t.Fatalf("gets/puts = %d/%d, want 2/2", st.Gets, st.Puts)
	}
	if st.News == 0 || st.News > st.Gets {
		t.Fatalf("news = %d, want in [1, %d]", st.News, st.Gets)
	}
	// The registry surfaces the pool under its name.
	found := false
	for _, s := range Stats() {
		if s.Name == "test.scratch" {
			found = true
			if s.Gets != 2 {
				t.Fatalf("registry snapshot gets = %d, want 2", s.Gets)
			}
		}
	}
	if !found {
		t.Fatal("pool missing from Stats()")
	}
}

// TestEncode pins the level-coded form at its limit: a support with
// exactly MaxLevels distinct utilities is coded, one more keeps a float64
// per entry, and so does a support holding a value outside the positive
// utilities a Scorer promises. Either way the result is exactly sized and
// a Slice over it replays the source stream bit for bit.
func TestEncode(t *testing.T) {
	support := func(distinct int, extra ...float64) ([]int32, []float64) {
		var idx []int32
		var val []float64
		for j := range 3 * distinct {
			idx = append(idx, int32(2*j+1))
			// Levels out of node order and repeated: 1/8, 2/8, ... .
			val = append(val, float64((j*7)%distinct+1)/8)
		}
		for _, x := range extra {
			idx = append(idx, int32(2*len(idx)+1))
			val = append(val, x)
		}
		return idx, val
	}
	for _, tc := range []struct {
		name  string
		extra []float64
		n     int
		coded bool
	}{
		{"one level", nil, 1, true},
		{"MaxLevels", nil, MaxLevels, true},
		{"MaxLevels+1", nil, MaxLevels + 1, false},
		{"NaN", []float64{math.NaN()}, 4, false},
		{"zero", []float64{0}, 4, false},
		{"empty", nil, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			idx, val := support(tc.n, tc.extra...)
			src := NewSlice(idx, val)
			src.Next() // Encode rewinds first
			ids, code, levels := Encode(src)
			if (code != nil) != tc.coded {
				t.Fatalf("coded = %v, want %v", code != nil, tc.coded)
			}
			if cap(ids.Gaps) != len(ids.Gaps) || cap(ids.Off) != len(ids.Off) || cap(code) != len(code) || cap(levels) != len(levels) {
				t.Fatalf("slack capacity: gaps %d/%d, offsets %d/%d, code %d/%d, levels %d/%d",
					len(ids.Gaps), cap(ids.Gaps), len(ids.Off), cap(ids.Off), len(code), cap(code), len(levels), cap(levels))
			}
			if len(ids.Off) != (len(idx)+IDBlock-1)/IDBlock {
				t.Fatalf("%d block offsets for %d entries", len(ids.Off), len(idx))
			}
			if tc.coded {
				if len(levels) != tc.n || !slices.IsSorted(levels) {
					t.Fatalf("levels %v: want %d ascending", levels, tc.n)
				}
			} else if len(levels) != len(val) {
				t.Fatalf("%d per-entry values for %d entries", len(levels), len(val))
			}
			if Len(code, levels) != len(idx) {
				t.Fatalf("Len = %d, want %d", Len(code, levels), len(idx))
			}
			s := &Slice{IDs: ids, Code: code, Val: levels}
			for j := range idx {
				i, x, ok := s.Next()
				if !ok || i != idx[j] || math.Float64bits(x) != math.Float64bits(val[j]) {
					t.Fatalf("entry %d: got (%d, %v, %v), want (%d, %v)", j, i, x, ok, idx[j], val[j])
				}
			}
			if _, _, ok := s.Next(); ok {
				t.Fatal("coded Slice yields past its last entry")
			}
		})
	}
}

// fuzzSupport builds an ascending support from FuzzEncode's inputs: the
// first node ID, then one uvarint per entry in steps, each the gap to the
// next ID less one, for at most 4,096 entries below 2^31. Entry j's
// utility is (1 + j·mult mod distinct)/8, so distinct bounds the number of
// levels.
func fuzzSupport(first uint32, steps []byte, distinct, mult uint16) ([]int32, []float64) {
	const maxEntries = 4096
	d := max(int(distinct), 1)
	var idx []int32
	var val []float64
	for id := int64(first & math.MaxInt32); len(idx) < maxEntries; {
		idx = append(idx, int32(id))
		val = append(val, float64(1+len(val)*int(mult)%d)/8)
		u, w := binary.Uvarint(steps)
		if w <= 0 {
			break
		}
		steps = steps[w:]
		if id += 1 + int64(u); u >= math.MaxInt32 || id > math.MaxInt32 {
			break
		}
	}
	return idx, val
}

// FuzzEncode checks that Encode followed by a Slice replay reproduces an
// arbitrary ascending support bit for bit, twice across a Reset, that
// random access by position and block decoding agree with the sequential
// walk, and that the support is level-coded exactly when it has at most
// MaxLevels distinct utilities.
func FuzzEncode(f *testing.F) {
	ones := func(n int) []byte { return make([]byte, n) }         // gap 1 each
	f.Add(uint32(0), ones(0), uint16(1), uint16(1))               // node 0 alone
	f.Add(uint32(7114), ones(0), uint16(1), uint16(1))            // node n-1 alone
	f.Add(uint32(0), ones(4095), uint16(16), uint16(7))           // nodes 0 to n-1 of n = 4,096
	f.Add(uint32(math.MaxInt32-3), ones(3), uint16(2), uint16(1)) // ends at 2^31-1
	f.Add(uint32(5), binary.AppendUvarint(nil, 127), uint16(1), uint16(1))
	f.Add(uint32(5), binary.AppendUvarint(nil, 16383), uint16(1), uint16(1))
	f.Add(uint32(5), binary.AppendUvarint(binary.AppendUvarint(ones(40), 200), 20000), uint16(3), uint16(1))
	for _, n := range []int{31, 32, 33, 64, 65} { // block boundaries
		f.Add(uint32(3), binary.AppendUvarint(ones(n-2), 1<<20), uint16(5), uint16(3))
	}
	f.Add(uint32(1), ones(3*MaxLevels), uint16(MaxLevels), uint16(1))
	f.Add(uint32(1), ones(3*MaxLevels), uint16(MaxLevels+1), uint16(1))
	f.Fuzz(func(t *testing.T, first uint32, steps []byte, distinct, mult uint16) {
		idx, val := fuzzSupport(first, steps, distinct, mult)
		levels := make(map[float64]bool)
		for _, x := range val {
			levels[x] = true
		}
		ids, code, vals := Encode(NewSlice(idx, val))
		if (code != nil) != (len(levels) <= MaxLevels) {
			t.Fatalf("%d levels: coded = %v", len(levels), code != nil)
		}
		if len(ids.Off) != (len(idx)+IDBlock-1)/IDBlock || cap(ids.Gaps) != len(ids.Gaps) || cap(ids.Off) != len(ids.Off) {
			t.Fatalf("%d entries: %d/%d gap bytes, %d/%d offsets", len(idx), len(ids.Gaps), cap(ids.Gaps), len(ids.Off), cap(ids.Off))
		}
		s := &Slice{IDs: ids, Code: code, Val: vals}
		for pass := range 2 {
			for j := range idx {
				i, x, ok := s.Next()
				if !ok || i != idx[j] || math.Float64bits(x) != math.Float64bits(val[j]) {
					t.Fatalf("pass %d entry %d: got (%d, %v, %v), want (%d, %v)", pass, j, i, x, ok, idx[j], val[j])
				}
				if at := ids.At(j); at != i {
					t.Fatalf("entry %d: At %d, sequential walk %d", j, at, i)
				}
			}
			if _, _, ok := s.Next(); ok {
				t.Fatalf("pass %d: Slice yields past its last entry", pass)
			}
			s.Reset()
		}
		var buf [IDBlock]int32
		for b := range ids.Off {
			lo := b * IDBlock
			if blk := ids.Block(b, &buf); !slices.Equal(blk, idx[lo:min(lo+IDBlock, len(idx))]) {
				t.Fatalf("block %d decodes %v, want %v", b, blk, idx[lo:min(lo+IDBlock, len(idx))])
			}
		}
	})
}
