package stream

import (
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
// a coded Slice replays the source stream bit for bit.
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
			gotIdx, code, levels := Encode(src)
			if (code != nil) != tc.coded {
				t.Fatalf("coded = %v, want %v", code != nil, tc.coded)
			}
			if cap(gotIdx) != len(idx) || cap(code) != len(code) || cap(levels) != len(levels) {
				t.Fatalf("slack capacity: idx %d/%d, code %d/%d, levels %d/%d",
					len(gotIdx), cap(gotIdx), len(code), cap(code), len(levels), cap(levels))
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
			s := &Slice{Idx: gotIdx, Code: code, Val: levels}
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
