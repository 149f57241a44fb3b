package core

import (
	"container/heap"
	"math"

	"simsub/internal/sim"
	"simsub/internal/traj"
)

// This file implements the top-k generalization sketched in §3.1: instead
// of the single most similar subtrajectory, return the k most similar ones.
// The paper notes the extension is straightforward — "maintaining the k
// most similar subtrajectories and updating them when a subtrajectory that
// is more similar than the kth most similar subtrajectory" is found — and
// that is what resultHeap does for both the exact enumeration and the
// splitting-based search processes.

// resultHeap is a bounded max-heap on distance: it retains the k smallest
// results seen. Overlapping intervals are allowed unless distinct is set,
// in which case an incoming interval replaces an overlapping held one only
// when strictly better, keeping the answer set spatially diverse.
type resultHeap struct {
	k        int
	distinct bool
	items    []Result
}

// Len, Less, Swap, Push and Pop implement heap.Interface (max-heap).
func (h *resultHeap) Len() int           { return len(h.items) }
func (h *resultHeap) Less(i, j int) bool { return h.items[i].Dist > h.items[j].Dist }
func (h *resultHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *resultHeap) Push(x any)         { h.items = append(h.items, x.(Result)) }
func (h *resultHeap) Pop() any {
	old := h.items
	n := len(old)
	out := old[n-1]
	h.items = old[:n-1]
	return out
}

// offer considers a candidate for the top-k set.
func (h *resultHeap) offer(r Result) {
	if h.distinct {
		for i := range h.items {
			if overlaps(h.items[i].Interval, r.Interval) {
				if r.Dist < h.items[i].Dist {
					h.items[i] = r
					heap.Fix(h, i)
				}
				return
			}
		}
	}
	if len(h.items) < h.k {
		heap.Push(h, r)
		return
	}
	if r.Dist < h.items[0].Dist {
		h.items[0] = r
		heap.Fix(h, 0)
	}
}

// sorted drains the heap into ascending-distance order.
func (h *resultHeap) sorted() []Result {
	out := make([]Result, len(h.items))
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(h).(Result)
	}
	return out
}

func overlaps(a, b traj.Interval) bool { return a.I <= b.J && b.I <= a.J }

// threshold returns the heap's current k-th best distance, +Inf while it
// is not yet full. An offer can only change the heap when its distance is
// strictly below this (a full heap replaces on strict <, and a distinct-
// mode overlap replacement needs to beat the held item, whose distance is
// at most the root's), so evaluations provably above it are skippable
// without changing the final ranking.
func (h *resultHeap) threshold() float64 {
	if h.k > 0 && len(h.items) == h.k {
		return h.items[0].Dist
	}
	return math.Inf(1)
}

// TopKExact returns the k most similar subtrajectories of t to q in
// ascending distance order, by exact enumeration with incremental
// computation — the same O(n·(Φini + n·Φinc)) cost as ExactS. With
// distinct, overlapping answers are collapsed to the best representative,
// which is usually what applications (e.g. play retrieval) want.
// Once the heap fills, inner scans abandon through ExtendAbandoning
// against its k-th-best distance: the skipped evaluations are provably
// strictly worse than every retained result, so the ranking is byte-
// identical to the full enumeration.
func TopKExact(m sim.Measure, t, q traj.Trajectory, k int, distinct bool) []Result {
	h := &resultHeap{k: k, distinct: distinct}
	n := t.Len()
	if n == 0 || k <= 0 {
		return h.sorted()
	}
	inc := m.NewIncremental(t, q)
	defer sim.Release(inc)
	for i := 0; i < n; i++ {
		h.offer(Result{Interval: traj.Interval{I: i, J: i}, Dist: inc.Init(i)})
		for j := i + 1; j < n; j++ {
			d, abandoned := inc.ExtendAbandoning(h.threshold())
			if abandoned {
				break
			}
			h.offer(Result{Interval: traj.Interval{I: i, J: j}, Dist: d})
		}
	}
	return h.sorted()
}

// TopKSplit runs the PSS splitting process (Algorithm 2) while maintaining
// the k best candidate subtrajectories it exposes, in the same
// O(n1·Φini + n·Φinc) time as PSS. Candidates are the prefixes and
// suffixes the scan evaluates, so like PSS it is approximate.
func TopKSplit(m sim.Measure, t, q traj.Trajectory, k int, distinct bool) []Result {
	n := t.Len()
	if n == 0 {
		return nil
	}
	suf := sim.SuffixDists(m, t, q)
	h := &resultHeap{k: k, distinct: distinct}
	bestDist := math.Inf(1)
	start := 0
	inc := m.NewIncremental(t, q)
	defer sim.Release(inc)
	var dPre float64
	for i := 0; i < n; i++ {
		if i == start {
			dPre = inc.Init(i)
		} else {
			dPre = inc.Extend()
		}
		h.offer(Result{Interval: traj.Interval{I: start, J: i}, Dist: dPre})
		h.offer(Result{Interval: traj.Interval{I: i, J: n - 1}, Dist: suf[i]})
		if math.Min(dPre, suf[i]) < bestDist {
			bestDist = math.Min(dPre, suf[i])
			start = i + 1
		}
	}
	return h.sorted()
}
