// Package core implements the SimSub search algorithms of the paper:
//
//	§4.1  ExactS   — exact search over all n(n+1)/2 subtrajectories
//	§4.2  SizeS    — size-restricted approximate search (parameter ξ)
//	§4.3  PSS      — prefix-suffix splitting search (Algorithm 2)
//	§4.3  POS      — prefix-only splitting search
//	§4.3  POS-D    — prefix-only splitting with delay D
//	§5.3  RLS      — reinforcement-learning splitting search
//	§5.4  RLS-Skip — RLS with skip actions and state simplification
//	§6.1  competitors: Spring, UCR (adapted), Random-S, SimTra
//
// Every algorithm solves Problem 1: given a data trajectory T and a query
// trajectory Tq, return a subtrajectory T[i,j] with small dissimilarity
// d(T[i,j], Tq) under an abstract measure (package sim). Exact algorithms
// minimize it exactly; the others approximate.
//
// EmbedRank, the whole-trajectory embedding ranking behind algorithm
// "embed", takes an internal/t2vec encoder directly: core imports t2vec,
// and t2vec imports only sim, nn, geo and traj.
package core

import (
	"math"

	"simsub/internal/sim"
	"simsub/internal/traj"
)

// Result is the outcome of a SimSub search over one data trajectory.
type Result struct {
	// Interval is the returned subtrajectory range of the data trajectory.
	Interval traj.Interval
	// Dist is the dissimilarity the algorithm attributes to the interval:
	// its exact measure value, except for the suffix values of the PSS
	// family (PSS, RLS with Θsuf) under t2vec, which come from the reversed
	// pass and can differ; use ExactDist to re-score.
	Dist float64
	// Explored counts the subtrajectory similarity evaluations performed,
	// an implementation-independent cost proxy.
	Explored int
	// Scanned, for policy-walk searches (RLS family), counts the data
	// points whose prefix state the walk advanced — the complement of the
	// points a skip policy jumped over. Zero for algorithms that do not
	// walk a policy; quality scoring falls back to a fresh policy walk
	// then (see ScoreApproxQuality).
	Scanned int
}

// Algorithm is a SimSub search algorithm bound to a similarity measure.
type Algorithm interface {
	// Name returns the algorithm's display name, e.g. "PSS".
	Name() string
	// Search returns a subtrajectory of t similar to q. Both trajectories
	// must be non-empty.
	Search(t, q traj.Trajectory) Result
}

// ExactDist re-scores a result's interval with the measure, returning the
// exact dissimilarity of the returned subtrajectory.
func ExactDist(m sim.Measure, t, q traj.Trajectory, r Result) float64 {
	if !r.Interval.Valid(t.Len()) {
		return math.Inf(1)
	}
	return m.Dist(t.Sub(r.Interval.I, r.Interval.J), q)
}

// ExactS is the exact algorithm (Algorithm 1): it enumerates every
// subtrajectory with the incremental strategy, in O(n·(Φini + n·Φinc))
// time — O(n²·m) for DTW/Fréchet, O(n²) for t2vec.
type ExactS struct {
	M sim.Measure
}

// Name implements Algorithm.
func (ExactS) Name() string { return "ExactS" }

// Search implements Algorithm.
func (a ExactS) Search(t, q traj.Trajectory) Result {
	n := t.Len()
	best := Result{Dist: math.Inf(1)}
	if n == 0 {
		return best
	}
	// one computer re-Init-ed per start, so the enumeration performs no
	// per-start allocations (Init begins a fresh scan)
	inc := a.M.NewIncremental(t, q)
	defer sim.Release(inc)
	for i := 0; i < n; i++ {
		d := inc.Init(i)
		best.Explored++
		if d < best.Dist {
			best.Dist = d
			best.Interval = traj.Interval{I: i, J: i}
		}
		for j := i + 1; j < n; j++ {
			d = inc.Extend()
			best.Explored++
			if d < best.Dist {
				best.Dist = d
				best.Interval = traj.Interval{I: i, J: j}
			}
		}
	}
	return best
}

// SizeS is the size-restricted approximate algorithm (§4.2): it considers
// only subtrajectories whose length lies within [m-ξ, m+ξ], in
// O(n·(Φini + (m+ξ)·Φinc)) time. ξ trades efficiency for effectiveness;
// Appendix A constructs inputs where its answer is arbitrarily bad.
type SizeS struct {
	M sim.Measure
	// Xi is the soft margin ξ ≥ 0 on subtrajectory size.
	Xi int
}

// Name implements Algorithm.
func (SizeS) Name() string { return "SizeS" }

// Search implements Algorithm.
func (a SizeS) Search(t, q traj.Trajectory) Result {
	n, m := t.Len(), q.Len()
	lo := m - a.Xi
	if lo < 1 {
		lo = 1
	}
	hi := m + a.Xi
	best := Result{Dist: math.Inf(1)}
	if lo > n {
		// no subtrajectory satisfies the size constraint (the query exceeds
		// the data trajectory by more than ξ); the whole trajectory is the
		// closest-sized candidate
		return Result{
			Interval: traj.Interval{I: 0, J: n - 1},
			Dist:     a.M.Dist(t, q),
			Explored: 1,
		}
	}
	inc := a.M.NewIncremental(t, q)
	defer sim.Release(inc)
	for i := 0; i < n; i++ {
		if i+lo-1 >= n {
			break // even the shortest allowed subtrajectory no longer fits
		}
		d := inc.Init(i)
		best.Explored++
		if lo == 1 && d < best.Dist {
			best.Dist = d
			best.Interval = traj.Interval{I: i, J: i}
		}
		for j := i + 1; j < n && j-i+1 <= hi; j++ {
			d = inc.Extend()
			best.Explored++
			if j-i+1 >= lo && d < best.Dist {
				best.Dist = d
				best.Interval = traj.Interval{I: i, J: j}
			}
		}
	}
	return best
}

// PSS is the Prefix-Suffix Search (Algorithm 2): scanning p_1..p_n, it
// splits whenever the current prefix T[h,i] or suffix T[i,n] improves on the
// best subtrajectory found so far. Suffix distances are computed over
// reversed trajectories, incrementally, which is exact for DTW/Fréchet and
// positively correlated for t2vec (§4.3). Time O(n1·Φini + n·Φinc).
type PSS struct {
	M sim.Measure
}

// Name implements Algorithm.
func (PSS) Name() string { return "PSS" }

// Search implements Algorithm.
func (a PSS) Search(t, q traj.Trajectory) Result {
	suf := sim.SuffixDists(a.M, t, q) // lines 2-3 of Algorithm 2
	return pssScan(a.M, t, q, suf)
}

// pssScan is the prefix scan of Algorithm 2 over precomputed suffix
// distances; the threshold-aware search path shares it, supplying suffix
// state from its per-scan suffixPass.
func pssScan(m sim.Measure, t, q traj.Trajectory, suf []float64) Result {
	n := t.Len()
	best := Result{Dist: math.Inf(1)}
	best.Explored = n // the suffix computations
	if n == 0 {
		return best
	}
	inc := m.NewIncremental(t, q)
	defer sim.Release(inc)
	h := 0
	var dPre float64
	for i := 0; i < n; i++ {
		if i == h {
			dPre = inc.Init(i)
		} else {
			dPre = inc.Extend()
		}
		best.Explored++
		dSuf := suf[i]
		if math.Min(dPre, dSuf) < best.Dist {
			if dPre <= dSuf {
				best.Dist = dPre
				best.Interval = traj.Interval{I: h, J: i}
			} else {
				best.Dist = dSuf
				best.Interval = traj.Interval{I: i, J: n - 1}
			}
			h = i + 1 // split at p_i
		}
	}
	return best
}

// POS is the Prefix-Only Search (§4.3): PSS without the suffix component,
// saving its computation at the cost of a smaller candidate space.
type POS struct {
	M sim.Measure
}

// Name implements Algorithm.
func (POS) Name() string { return "POS" }

// Search implements Algorithm.
func (a POS) Search(t, q traj.Trajectory) Result {
	return posSearch(a.M, t, q, 0)
}

// POSD is POS with delay (§4.3): when a prefix improves on the best known
// subtrajectory, it keeps scanning up to D more points and splits at the
// point whose prefix is the most similar.
type POSD struct {
	M sim.Measure
	// D is the number of extra points examined before committing to a
	// split. The paper uses D = 5.
	D int
}

// Name implements Algorithm.
func (POSD) Name() string { return "POS-D" }

// Search implements Algorithm.
func (a POSD) Search(t, q traj.Trajectory) Result {
	return posSearch(a.M, t, q, a.D)
}

// posSearch implements POS (delay == 0) and POS-D (delay > 0).
func posSearch(m sim.Measure, t, q traj.Trajectory, delay int) Result {
	n := t.Len()
	best := Result{Dist: math.Inf(1)}
	if n == 0 {
		return best
	}
	inc := m.NewIncremental(t, q)
	defer sim.Release(inc)
	h := 0
	var dPre float64
	for i := 0; i < n; i++ {
		if i == h {
			dPre = inc.Init(i)
		} else {
			dPre = inc.Extend()
		}
		best.Explored++
		if dPre < best.Dist {
			// candidate split found at i; with delay, examine up to D more
			// prefixes and commit to the best of them
			bestJ, bestD := i, dPre
			for d := 1; d <= delay && i+d < n; d++ {
				ext := inc.Extend()
				best.Explored++
				if ext < bestD {
					bestJ, bestD = i+d, ext
				}
			}
			best.Dist = bestD
			best.Interval = traj.Interval{I: h, J: bestJ}
			h = bestJ + 1
			i = bestJ // resume scanning after the split point
		}
	}
	return best
}
