package sim

import (
	"math"

	"simsub/internal/geo"
	"simsub/internal/traj"
)

// This file generalizes the UCR-suite pruning machinery (previously private
// to core/competitors.go) into a measure-owned lower-bound cascade usable by
// every search process: given a candidate data trajectory T and a query Q, a
// SubtrajLB produces a provable lower bound on d(T[i,j], Q) over EVERY
// non-empty subtrajectory T[i,j]. A top-k scan whose running k-th-best
// distance is tau can therefore drop the whole candidate whenever the bound
// strictly exceeds tau: no subtrajectory of it — in particular none an
// algorithm could report — can enter the ranking, and ties at tau are kept
// because the comparison is strict.
//
// The cascade runs cheapest stage first and stops as soon as the running
// bound exceeds tau:
//
//	stage 1  O(1)  MBR-to-MBR gap between the precomputed trajectory MBRs
//	stage 2  O(m)  per-query-point distance to the candidate's MBR
//	               (the query-envelope LB_Keogh bound with the candidate
//	               collapsed to its MBR, valid for any subtrajectory)
//	stage 3  O(n)  LB_Kim-style endpoint refinement: the query's first and
//	               last points align with actual points of T, not its MBR
//
// Correctness arguments per measure are documented on each implementation;
// DESIGN.md carries the summary. The promise holds in floating point, not
// just over the reals: a DP distance is a left fold of rounded additions
// (or maxima) over the cells of one alignment path, and a sum-based stage
// returns a fold in query order of terms each no larger than the first
// path term of its query point. Rounded addition is monotone in each
// argument and adding a non-negative term never decreases a sum, so the
// path's fold dominates the stage's (freestart.go uses the same argument).

// SubtrajLowerBounder is an optional Measure capability: measures that can
// lower-bound all-subtrajectory distances implement it, and threshold-aware
// scans use it to skip candidates without running any DP.
type SubtrajLowerBounder interface {
	Measure
	// NewSubtrajLB precomputes per-query state (query MBR, per-point gap
	// costs, ...) reused across every candidate of a scan. The returned
	// SubtrajLB is single-goroutine.
	NewSubtrajLB(q traj.Trajectory) SubtrajLB
}

// SubtrajLB lower-bounds subtrajectory distances of candidates against one
// fixed query.
type SubtrajLB interface {
	// LowerBound returns a value no greater than d(T[i,j], Q) for every
	// non-empty subtrajectory T[i,j] of t; mbr must be MBR(t). The cascade
	// returns early once the running bound strictly exceeds tau, so the
	// result is only a "best effort maximal" bound — but always a valid
	// lower bound.
	LowerBound(t traj.Trajectory, mbr geo.Rect, tau float64) float64
}

// dtwLB lower-bounds DTW (and, by alignment-set inclusion, CDTW).
//
// Every DTW warping path pairs each query point q_j with at least one point
// of the subtrajectory, and distinct query points contribute distinct pairs,
// so DTW >= Σ_j d(q_j, P) for any point set P containing the subtrajectory:
// stage 1 uses P = MBR(t) collapsed against MBR(q) (m · rect gap), stage 2
// uses P = MBR(t) per point, and stage 3 replaces the first and last query
// points' terms with their exact minimum distance to the points of t (their
// alignment partners are real points of T, not MBR projections). Each
// stage is a fold in query order; stage 1 folds the m gap terms rather
// than multiplying, since m·gap can round above the fold.
type dtwLB struct {
	q    traj.Trajectory
	qmbr geo.Rect
	d    []float64 // stage 2's terms d(q_j, MBR(t)), refolded by stage 3
}

// NewSubtrajLB implements SubtrajLowerBounder.
func (DTW) NewSubtrajLB(q traj.Trajectory) SubtrajLB {
	return &dtwLB{q: q, qmbr: q.MBR(), d: make([]float64, q.Len())}
}

// NewSubtrajLB implements SubtrajLowerBounder. CDTW restricts DTW's
// alignment set, so its minimum can only be larger and every DTW lower
// bound is a CDTW lower bound.
func (CDTW) NewSubtrajLB(q traj.Trajectory) SubtrajLB {
	return DTW{}.NewSubtrajLB(q)
}

func (lb *dtwLB) LowerBound(t traj.Trajectory, mbr geo.Rect, tau float64) float64 {
	m := lb.q.Len()
	if m == 0 || t.Len() == 0 {
		return math.Inf(1)
	}
	// stage 1: an O(1) gate, then the fold of m gap terms
	if gap := lb.qmbr.DistToRect(mbr); float64(m)*gap > tau {
		b := gap
		for j := 1; j < m; j++ {
			b += gap
		}
		if b > tau {
			return b
		}
	}
	// stage 2: O(m), early exit once the partial sum (itself a valid
	// bound) clears tau
	sum := 0.0
	for j := 0; j < m; j++ {
		lb.d[j] = mbr.DistToPoint(lb.q.Pt(j))
		sum += lb.d[j]
		if sum > tau {
			return sum
		}
	}
	// stage 3: O(n) endpoint refinement, stage 2's fold with the endpoint
	// terms replaced by the larger exact minima
	min0, minm := endpointMins(t, lb.q.Pt(0), lb.q.Pt(m-1))
	if m == 1 {
		return min0
	}
	b := min0
	for j := 1; j < m-1; j++ {
		b += lb.d[j]
	}
	return b + minm
}

// endpointMins returns the minimum distances from the points of t to the
// query's first and last points — the LB_Kim-style stage shared by the DTW
// and Fréchet cascades. It folds squared distances and takes one square
// root per endpoint: geo.Dist is the square root of geo.SqDist and sqrt is
// monotone, so the result carries the bits of the minimum over geo.Dist.
func endpointMins(t traj.Trajectory, first, last geo.Point) (min0, minm float64) {
	min0, minm = math.Inf(1), math.Inf(1)
	for _, p := range t.Points {
		if d := geo.SqDist(p, first); d < min0 {
			min0 = d
		}
		if d := geo.SqDist(p, last); d < minm {
			minm = d
		}
	}
	return math.Sqrt(min0), math.Sqrt(minm)
}

// frechetLB is the max-norm analogue of dtwLB: the discrete Fréchet
// distance is the maximum pair cost of the best coupling, and every
// coupling pairs each query point with a subtrajectory point, so
// Fréchet >= max_j d(q_j, MBR(t)), refined at the endpoints with exact
// minimum point distances.
type frechetLB struct {
	q    traj.Trajectory
	qmbr geo.Rect
}

// NewSubtrajLB implements SubtrajLowerBounder.
func (Frechet) NewSubtrajLB(q traj.Trajectory) SubtrajLB {
	return &frechetLB{q: q, qmbr: q.MBR()}
}

func (lb *frechetLB) LowerBound(t traj.Trajectory, mbr geo.Rect, tau float64) float64 {
	m := lb.q.Len()
	if m == 0 || t.Len() == 0 {
		return math.Inf(1)
	}
	// stage 1: O(1)
	if b := lb.qmbr.DistToRect(mbr); b > tau {
		return b
	}
	// stage 2: O(m)
	maxd := 0.0
	for j := 0; j < m; j++ {
		if d := mbr.DistToPoint(lb.q.Pt(j)); d > maxd {
			maxd = d
			if maxd > tau {
				return maxd
			}
		}
	}
	// stage 3: O(n) endpoint refinement
	min0, minm := endpointMins(t, lb.q.Pt(0), lb.q.Pt(m-1))
	if min0 > maxd {
		maxd = min0
	}
	if m > 1 && minm > maxd {
		maxd = minm
	}
	return maxd
}

// erpLB: every query point is consumed exactly once by an ERP edit script —
// matched against a subtrajectory point (cost >= d(q_j, MBR(t))) or deleted
// against the gap point (cost d(q_j, g)) — and data-side deletions only add
// non-negative cost, so ERP >= Σ_j min(d(q_j, MBR(t)), d(q_j, g)). The gap
// distances are per-query constants precomputed here.
type erpLB struct {
	q    traj.Trajectory
	gapD []float64
}

// NewSubtrajLB implements SubtrajLowerBounder.
func (e ERP) NewSubtrajLB(q traj.Trajectory) SubtrajLB {
	gapD := make([]float64, q.Len())
	e.gapCostsInto(gapD, q)
	return &erpLB{q: q, gapD: gapD}
}

func (lb *erpLB) LowerBound(t traj.Trajectory, mbr geo.Rect, tau float64) float64 {
	m := lb.q.Len()
	if m == 0 || t.Len() == 0 {
		return math.Inf(1)
	}
	sum := 0.0
	for j := 0; j < m; j++ {
		d := mbr.DistToPoint(lb.q.Pt(j))
		if g := lb.gapD[j]; g < d {
			d = g
		}
		sum += d
		if sum > tau {
			return sum
		}
	}
	return sum
}

// edrLB: a query point can be substituted at cost 0 only when it matches a
// subtrajectory point within Eps per coordinate; a point whose Chebyshev
// distance to MBR(t) exceeds Eps can match nothing in t, and every query
// point is consumed exactly once, so each such point contributes at least 1
// edit. EDR >= count of unmatchable query points.
type edrLB struct {
	q   traj.Trajectory
	eps float64
}

// NewSubtrajLB implements SubtrajLowerBounder.
func (e EDR) NewSubtrajLB(q traj.Trajectory) SubtrajLB {
	return &edrLB{q: q, eps: e.Eps}
}

func (lb *edrLB) LowerBound(t traj.Trajectory, mbr geo.Rect, tau float64) float64 {
	m := lb.q.Len()
	if m == 0 || t.Len() == 0 {
		return math.Inf(1)
	}
	count := 0.0
	for j := 0; j < m; j++ {
		if mbr.ChebyshevDistToPoint(lb.q.Pt(j)) > lb.eps {
			count++
			if count > tau {
				return count
			}
		}
	}
	return count
}
