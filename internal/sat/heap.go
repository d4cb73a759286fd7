package sat

import "slices"

// varHeap is an indexed max-heap of variables ordered by activity.
// It supports insert, removeMax and update (after an activity bump).
type varHeap struct {
	act     *[]float64 // shared with the solver; indexed by var
	heap    []int      // heap of vars
	indices []int      // var -> position in heap, -1 if absent
}

func newVarHeap(act *[]float64) *varHeap {
	return &varHeap{act: act}
}

func (h *varHeap) less(a, b int) bool {
	return (*h.act)[h.heap[a]] > (*h.act)[h.heap[b]]
}

func (h *varHeap) swap(a, b int) {
	h.heap[a], h.heap[b] = h.heap[b], h.heap[a]
	h.indices[h.heap[a]] = a
	h.indices[h.heap[b]] = b
}

func (h *varHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *varHeap) down(i int) {
	n := len(h.heap)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}

// reserve sizes the heap and its index for n variables.
func (h *varHeap) reserve(n int) {
	h.heap = slices.Grow(h.heap, n-len(h.heap))
	h.indices = slices.Grow(h.indices, n-len(h.indices))
}

// insert adds v to the heap if not already present.
func (h *varHeap) insert(v int) {
	for len(h.indices) <= v {
		h.indices = append(h.indices, -1)
	}
	if h.indices[v] >= 0 {
		return
	}
	h.heap = append(h.heap, v)
	h.indices[v] = len(h.heap) - 1
	h.up(len(h.heap) - 1)
}

// removeMax pops the highest-activity variable. ok is false if empty.
func (h *varHeap) removeMax() (v int, ok bool) {
	if len(h.heap) == 0 {
		return 0, false
	}
	v = h.heap[0]
	last := len(h.heap) - 1
	h.swap(0, last)
	h.heap = h.heap[:last]
	h.indices[v] = -1
	if last > 0 {
		h.down(0)
	}
	return v, true
}

// update restores heap order after v's activity increased.
func (h *varHeap) update(v int) {
	if v < len(h.indices) && h.indices[v] >= 0 {
		h.up(h.indices[v])
	}
}
