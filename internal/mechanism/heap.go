package mechanism

// Bounded-heap top-k selection. Serving returns small k over large candidate
// domains, so selection cost should be O(n log k), not the O(n log n) of a
// full sort or the O(n·k) of repeated scans. The incremental topHeap is the
// single implementation behind the streaming top-k releases (stream.go):
// feeding it the same (value, sequence) pairs in the same order produces
// the same selection bit for bit, the one a stable descending sort gives.

// topEntry is one scored candidate offered to a topHeap: v is the (noisy)
// score, seq the candidate's position in the offer order — the tie-break
// key — and the remaining fields the caller's payload, carried through the
// heap untouched.
type topEntry struct {
	v   float64
	seq int
	// Payload: a resolved support candidate (node, util) or a tail rank.
	node   int32
	util   float64
	tail   int
	isTail bool
}

// topHeap selects the k best entries by descending v with ties toward the
// lower seq — the order a stable descending sort would produce. It is a
// min-heap under "beats": the root is the weakest of the current top k.
type topHeap struct {
	k int
	e []topEntry
}

// beats reports whether a outranks b: the larger value, or an equal value
// at a smaller sequence number.
func (*topHeap) beats(a, b topEntry) bool {
	if a.v != b.v {
		return a.v > b.v
	}
	return a.seq < b.seq
}

func (h *topHeap) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		weakest := i
		if l < len(h.e) && h.beats(h.e[weakest], h.e[l]) {
			weakest = l
		}
		if r < len(h.e) && h.beats(h.e[weakest], h.e[r]) {
			weakest = r
		}
		if weakest == i {
			return
		}
		h.e[i], h.e[weakest] = h.e[weakest], h.e[i]
		i = weakest
	}
}

// offer considers one entry, displacing the current weakest if the heap is
// full and the entry beats it.
func (h *topHeap) offer(e topEntry) {
	if len(h.e) < h.k {
		h.e = append(h.e, e)
		for c := len(h.e) - 1; c > 0; {
			p := (c - 1) / 2
			if !h.beats(h.e[p], h.e[c]) {
				break
			}
			h.e[p], h.e[c] = h.e[c], h.e[p]
			c = p
		}
		return
	}
	if h.beats(e, h.e[0]) {
		h.e[0] = e
		h.siftDown(0)
	}
}

// drain pops the held entries weakest-first, filling the heap's backing
// array back to front so it ends ordered best-first, and returns it. The
// heap is spent afterwards.
func (h *topHeap) drain() []topEntry {
	e := h.e
	for n := len(h.e) - 1; n >= 0; n-- {
		top := h.e[0]
		h.e[0] = h.e[n]
		h.e = h.e[:n]
		h.siftDown(0)
		e[n] = top
	}
	h.e = nil
	return e
}
