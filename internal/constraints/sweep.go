package constraints

import (
	"container/heap"
	"sort"

	"llhsc/internal/addr"
)

// interval is the arithmetic model of overlapTerm: the set of addresses
// x at the checker's bit width with b <= x < b+s, under the same
// truncation rules the SMT encoding applies. top marks a region whose
// end reaches or wraps past 2^width — only the lower bound constrains x
// (overlapTerm emits just Ule(base, x) there), so the interval extends
// to the top of the address space.
type interval struct {
	lo  uint64
	hi  uint64 // exclusive; ignored when top
	top bool
}

// regionInterval returns the interval of addresses overlapTerm accepts
// for r, and false for a region no address can inhabit (Size == 0,
// where overlapTerm is the constant false).
func regionInterval(r addr.Region, width int) (interval, bool) {
	if r.Size == 0 {
		return interval{}, false
	}
	end := r.Base + r.Size
	overflows := end < r.Base // 64-bit wrap
	if width < 64 && end >= 1<<uint(width) {
		overflows = true
	}
	if overflows {
		return interval{lo: truncTo(r.Base, width), top: true}, true
	}
	return interval{lo: r.Base, hi: end}, true
}

// contains reports whether address p lies in the interval.
func (iv interval) contains(p uint64) bool {
	return p >= iv.lo && (iv.top || p < iv.hi)
}

func truncTo(v uint64, width int) uint64 {
	if width >= 64 {
		return v
	}
	return v & ((1 << uint(width)) - 1)
}

// intervalsOverlap reports whether the two intervals share an address —
// by construction, exactly when the pair's SMT query is satisfiable.
func intervalsOverlap(a, b interval) bool {
	lo := a.lo
	if b.lo > lo {
		lo = b.lo
	}
	return (a.top || lo < a.hi) && (b.top || lo < b.hi)
}

// sweepItem is one region in flight during the sweep.
type sweepItem struct {
	iv  interval
	idx int // index into the regions slice
}

// sweepHeap is a min-heap of active regions ordered by interval end
// (top = infinity), so expired regions can be retired in O(log n).
type sweepHeap []sweepItem

func (h sweepHeap) Len() int { return len(h) }
func (h sweepHeap) Less(i, j int) bool {
	if h[i].iv.top != h[j].iv.top {
		return !h[i].iv.top
	}
	return h[i].iv.hi < h[j].iv.hi
}
func (h sweepHeap) Swap(i, j int)  { h[i], h[j] = h[j], h[i] }
func (h *sweepHeap) Push(x any)    { *h = append(*h, x.(sweepItem)) }
func (h *sweepHeap) Pop() any      { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }
func (h sweepHeap) min() sweepItem { return h[0] }

// sweepCandidates computes, in O(n log n + k) for k output pairs, the
// exact set of eligible region pairs whose intervals overlap. Regions
// are processed in ascending order of interval start; a min-heap on
// interval end retires regions that can no longer overlap anything
// later. Every region still active when a new one starts overlaps it
// (active.lo <= new.lo < active.hi), so candidate emission is
// enumeration, not testing. Pairs come back sorted by (i, j) index —
// the same order candidatePairs produces — so the production path and
// the all-pairs test oracle emit collisions in the same order.
func (sc *SemanticChecker) sweepCandidates(regions []addr.Region, width int) [][2]int {
	items := make([]sweepItem, 0, len(regions))
	for i, r := range regions {
		if iv, ok := regionInterval(r, width); ok {
			items = append(items, sweepItem{iv: iv, idx: i})
		}
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].iv.lo != items[j].iv.lo {
			return items[i].iv.lo < items[j].iv.lo
		}
		return items[i].idx < items[j].idx
	})

	var pairs [][2]int
	active := &sweepHeap{}
	for _, it := range items {
		for active.Len() > 0 && !active.min().iv.top && active.min().iv.hi <= it.iv.lo {
			heap.Pop(active)
		}
		for _, other := range *active {
			i, j := other.idx, it.idx
			if j < i {
				i, j = j, i
			}
			if sc.pairEligible(regions[i], regions[j]) {
				pairs = append(pairs, [2]int{i, j})
			}
		}
		heap.Push(active, it)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	return pairs
}
