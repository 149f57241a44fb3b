package sim

import (
	"math"

	"simsub/internal/geo"
	"simsub/internal/traj"
)

// This file is the free-start DP: the minimum of d(T[i,j], Q) over EVERY
// subtrajectory of T in one O(n·m) pass, where the ExactS enumeration
// spends O(n²·m). It is the recurrence SPRING (Sakurai et al., ICDE 2007)
// runs with star padding — query column 0 may restart at every data point:
//
//	S(x,0) = d(p_x, q_0)
//	S(x,j) = d(p_x, q_j) ⊕ min(S(x-1,j-1), S(x-1,j), S(x,j-1))
//
// with ⊕ = + for DTW and max for Fréchet, and the answer min_x S(x,m-1).
//
// The result carries the same bits as the minimum the enumeration finds,
// not merely the same real number. Let D_i(x,j) be the cell the per-start
// computer (dtwInc/frechetInc after Init(i)) holds for data point x >= i.
// Rounded addition and max are both monotone non-decreasing in each
// argument, so c ⊕ min_i a_i = min_i (c ⊕ a_i) holds exactly in floating
// point, and induction over (x,j) gives S(x,j) = min_{i<=x} D_i(x,j): the
// start i = x contributes D_x(x,j) = d ⊕ D_x(x,j-1), earlier starts
// contribute d ⊕ min of their three predecessors, and the minimum over
// starts distributes into the three S predecessors. In column 0,
// D_i(x,0) = d(p_x,q_0) ⊕ D_i(x-1,0) >= d(p_x,q_0) = D_x(x,0), so the
// restart wins. geo.Dist squares the coordinate differences, so it is
// bit-symmetric in its arguments and the two sides may call it either way
// round.
//
// The pass runs query-major: the pooled column holds S(·,j) over the n data
// points and advances one query point at a time, which is exactly the
// whole-trajectory row kernel with the roles of T and Q swapped and the
// first column left un-accumulated. Every cell of column j is a
// non-negative cost ⊕ a minimum over cells of column j-1 or earlier cells
// of column j, so the column minimum never decreases in j and lower-bounds
// the answer; the pass abandons as soon as it strictly exceeds tau.

// FreeStartMeasure is an optional Measure capability: the exact minimum
// distance over all subtrajectories without enumerating them. Measures
// whose cells depend on where the subtrajectory starts (CDTW's band is laid
// along the subtrajectory's own diagonal) cannot offer it.
type FreeStartMeasure interface {
	Measure
	// MinSubDist returns the minimum of Dist(T[i,j], Q) over every
	// non-empty subtrajectory of t, bit-identical to the minimum an
	// Incremental enumeration (AllSubDists) produces. When abandoned is
	// true the pass stopped early: the true minimum is strictly greater
	// than tau and d is only a lower bound on it. An empty t or q yields
	// (+Inf, false).
	MinSubDist(t, q traj.Trajectory, tau float64) (d float64, abandoned bool)
}

// MinSubDist implements FreeStartMeasure.
func (DTW) MinSubDist(t, q traj.Trajectory, tau float64) (float64, bool) {
	return minSubDist(t, q, tau, dtwExtendRowMin)
}

// MinSubDist implements FreeStartMeasure.
func (Frechet) MinSubDist(t, q traj.Trajectory, tau float64) (float64, bool) {
	return minSubDist(t, q, tau, frechetExtendRowMin)
}

// minSubDist runs the query-major free-start pass. extend is the measure's
// row kernel (dtwExtendRowMin / frechetExtendRowMin); handing it the query
// point as the new "data" point and t as the "query" advances the column
// over t by one query point and returns the new column minimum.
func minSubDist(t, q traj.Trajectory, tau float64, extend func([]float64, geo.Point, traj.Trajectory) float64) (float64, bool) {
	n, m := t.Len(), q.Len()
	if n == 0 || m == 0 {
		return math.Inf(1), false
	}
	col := getRow(n)
	defer putRow(col)
	q0 := q.Pt(0)
	colMin := math.Inf(1)
	for x, p := range t.Points {
		d := geo.Dist(p, q0)
		col[x] = d
		if d < colMin {
			colMin = d
		}
	}
	for j := 1; j < m; j++ {
		if colMin > tau {
			return colMin, true
		}
		colMin = extend(col, q.Pt(j), t)
	}
	return colMin, colMin > tau
}
