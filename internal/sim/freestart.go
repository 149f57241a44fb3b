package sim

import (
	"math"

	"simsub/internal/geo"
	"simsub/internal/traj"
)

// This file is the free-start DP: the best subtrajectory T[i,j] of T against
// Q, over EVERY start and end, in one pruned O(n·m) pass where the ExactS
// enumeration spends O(n²·m). It is the recurrence SPRING (Sakurai et al.,
// ICDE 2007) runs with star padding — query column 0 may restart at every
// data point:
//
//	S(x,0) = d(p_x, q_0)
//	S(x,j) = d(p_x, q_j) ⊕ min(S(x-1,j-1), S(x-1,j), S(x,j-1))
//
// with ⊕ = + for DTW and max for Fréchet, and the minimum min_x S(x,m-1).
//
// The minimum carries the same bits as the one the enumeration finds, not
// merely the same real number. Let D_i(x,j) be the cell the per-start
// computer (dtwInc/frechetInc after Init(i)) holds for data point x >= i.
// Rounded addition and max are both monotone non-decreasing in each
// argument, so c ⊕ min_i a_i = min_i (c ⊕ a_i) holds exactly in floating
// point, and induction over (x,j) gives S(x,j) = min_{i<=x} D_i(x,j): the
// start i = x contributes D_x(x,j) = d ⊕ D_x(x,j-1), earlier starts
// contribute d ⊕ min of their three predecessors, and the minimum over
// starts distributes into the three S predecessors. In column 0,
// D_i(x,0) = d(p_x,q_0) ⊕ D_i(x-1,0) >= d(p_x,q_0) = D_x(x,0), so the
// restart wins. geo.SqDist squares the coordinate differences, so it and
// geo.Dist are bit-symmetric in their arguments and the two sides may call
// them either way round.
//
// Pruning (PrunedDTW, Silva & Batista, SDM 2016). A cell whose value is
// strictly above the bound is dead and is held as +Inf. Values never
// decrease along a path, so a cell whose true value is within the bound has
// a minimizing predecessor within it too; by induction every cell holds a
// value at least its true one, and exactly its true one whenever that is
// within the bound — the only cells an answer within the bound can read. A
// cell whose three predecessors are all dead is therefore dead without a
// distance, and one step walks only from the first live cell of the
// previous line to the end of the live run past its last one. Nothing
// outside that live range is ever read, so a line needs no clearing.
//
// Fréchet runs in squared distances: Dist = sqrt(SqDist) (geo), and sqrt is
// monotone, so it commutes with every min and max of the recurrence and the
// pass takes one sqrt at the end. A squared cell v is within tau exactly
// when v <= sqBound(tau).
//
// The pass runs in two phases over one step kernel per measure
// (dtwKernel.step, frechetKernel.step):
//
//   - the gate, query-major: one pooled column S(·,j) over the n data
//     points advances one query point at a time. Once every cell is dead
//     the minimum is beyond tau and the pass abandons.
//   - the interval rows, data-major at tau = d*: for each start i in order,
//     the per-start row D_i(x,·) over the query advances one data point at
//     a time. The first (i, x) whose last cell is live is the
//     lexicographically first interval at distance d*, the very one the
//     enumeration's strict first-minimizer rule keeps; a start whose row
//     dies first holds no interval at d*.

// FreeStartMeasure is an optional Measure capability: the exact best
// subtrajectory without enumerating them. Measures whose cells depend on
// where the subtrajectory starts (CDTW's band is laid along the
// subtrajectory's own diagonal) cannot offer it.
type FreeStartMeasure interface {
	Measure
	// MinSub returns the lexicographically first interval minimizing
	// Dist(T[i,j], Q) over every non-empty subtrajectory of t and that
	// minimum, bit-identical to what an Incremental enumeration
	// (AllSubDists, keeping the first strictly smaller value) finds. When
	// abandoned is true the minimum is strictly greater than tau and the
	// interval and distance carry no information. An empty t or q yields
	// (Interval{}, +Inf, false).
	MinSub(t, q traj.Trajectory, tau float64) (iv traj.Interval, d float64, abandoned bool)
}

// MinSub implements FreeStartMeasure.
func (DTW) MinSub(t, q traj.Trajectory, tau float64) (traj.Interval, float64, bool) {
	return minSub(dtwKernel{}, t, q, tau)
}

// MinSub implements FreeStartMeasure.
func (Frechet) MinSub(t, q traj.Trajectory, tau float64) (traj.Interval, float64, bool) {
	return minSub(frechetKernel{}, t, q, tau)
}

// freeStartKernel is the measure-specific part of the pass, in the domain
// the cells live in (distances for DTW, squared distances for Fréchet).
type freeStartKernel interface {
	// bound maps a distance threshold into the cell domain.
	bound(tau float64) float64
	// dist maps a cell value back to a distance.
	dist(v float64) float64
	// column0 fills the gate's first column, S(x,0) = d(q0, p_x), and
	// returns its live range (lo > hi: every cell is dead).
	column0(col []float64, q0 geo.Point, t []geo.Point, bound float64) (lo, hi int)
	// row0 fills the live prefix of a start's first row, the fold of
	// d(p, q_j) over j, and returns its last live index (-1: none).
	row0(row []float64, p geo.Point, q []geo.Point, bound float64) (hi int)
	// step advances line, live on [lo, hi], by one point p against seq
	// and returns the new live range.
	step(line []float64, p geo.Point, seq []geo.Point, lo, hi int, bound float64) (int, int)
}

// minSub runs the gate and, within tau, the interval rows.
func minSub(k freeStartKernel, t, q traj.Trajectory, tau float64) (traj.Interval, float64, bool) {
	n, m := t.Len(), q.Len()
	if n == 0 || m == 0 {
		return traj.Interval{}, math.Inf(1), false
	}
	bound := k.bound(tau)
	col := getRow(n)
	defer putRow(col)
	lo, hi := k.column0(col, q.Pt(0), t.Points, bound)
	for j := 1; j < m && lo <= hi; j++ {
		lo, hi = k.step(col, q.Pt(j), t.Points, lo, hi, bound)
	}
	if lo > hi {
		// every cell dead: the minimum is beyond tau, or is +Inf (every
		// cell +Inf) and the enumeration keeps no interval but the zero one
		return traj.Interval{}, math.Inf(1), math.Inf(1) > tau
	}
	v := math.Inf(1)
	for _, c := range col[lo : hi+1] {
		if c < v {
			v = c
		}
	}
	d := k.dist(v)

	// the interval rows at tau = d: a live last cell is exactly d
	bound = k.bound(d)
	row := getRow(m)
	defer putRow(row)
	for i := 0; i < n; i++ {
		lo, hi := 0, k.row0(row, t.Pt(i), q.Points, bound)
		for x := i; lo <= hi; {
			if hi == m-1 {
				return traj.Interval{I: i, J: x}, d, false
			}
			if x++; x == n {
				break
			}
			lo, hi = k.step(row, t.Pt(x), q.Points, lo, hi, bound)
		}
	}
	panic("sim: the free-start minimum is attained by no interval")
}

// sqBound returns the largest float64 s with math.Sqrt(s) <= tau, so that a
// squared distance v has math.Sqrt(v) <= tau exactly when v <= s. tau*tau
// alone can sit an ulp or two below it: sqrt maps about two neighbouring
// floats to each result.
func sqBound(tau float64) float64 {
	if tau < 0 {
		return math.Inf(-1)
	}
	s := tau * tau
	for math.Sqrt(s) > tau {
		s = math.Nextafter(s, 0)
	}
	for s < math.Inf(1) && math.Sqrt(math.Nextafter(s, math.Inf(1))) <= tau {
		s = math.Nextafter(s, math.Inf(1))
	}
	return s
}

// dtwKernel is DTW's part of the pass: cells are distance sums.
type dtwKernel struct{}

func (dtwKernel) bound(tau float64) float64 { return tau }

func (dtwKernel) dist(v float64) float64 { return v }

func (dtwKernel) column0(col []float64, q0 geo.Point, t []geo.Point, bound float64) (int, int) {
	lo, hi := len(col), -1
	for x, p := range t {
		v := geo.Dist(q0, p)
		if v > bound {
			v = math.Inf(1)
		} else {
			lo, hi = min(lo, x), x
		}
		col[x] = v
	}
	return lo, hi
}

func (dtwKernel) row0(row []float64, p geo.Point, q []geo.Point, bound float64) int {
	acc := 0.0
	for j, qj := range q {
		if acc += geo.Dist(p, qj); acc > bound {
			return j - 1
		}
		row[j] = acc
	}
	return len(q) - 1
}

// step is dtwExtendRow over the live range: on entry line[lo:hi+1] holds
// the previous line, on exit the new line's live range is returned. Cells
// past hi+1 have only their left neighbour live, so the run ends at the
// first dead one.
func (dtwKernel) step(line []float64, p geo.Point, seq []geo.Point, lo, hi int, bound float64) (int, int) {
	inf := math.Inf(1)
	newLo, newHi := len(line), -1
	diag, left := inf, inf // line[x-1] before and after this step
	x := lo
	for ; x <= hi; x++ {
		up := line[x]
		best := diag
		if up < best {
			best = up
		}
		if left < best {
			best = left
		}
		v := inf
		if best < inf {
			if v = geo.Dist(p, seq[x]) + best; v > bound {
				v = inf
			} else {
				newLo, newHi = min(newLo, x), x
			}
		}
		line[x] = v
		diag, left = up, v
	}
	for ; x < len(line); x++ {
		best := left
		if diag < best {
			best = diag
		}
		v := geo.Dist(p, seq[x]) + best
		if v > bound {
			break
		}
		line[x] = v
		newLo, newHi = min(newLo, x), x
		diag, left = inf, v
	}
	return newLo, newHi
}

// frechetKernel is Fréchet's part of the pass: cells are squared distances.
type frechetKernel struct{}

func (frechetKernel) bound(tau float64) float64 { return sqBound(tau) }

func (frechetKernel) dist(v float64) float64 { return math.Sqrt(v) }

func (frechetKernel) column0(col []float64, q0 geo.Point, t []geo.Point, bound float64) (int, int) {
	lo, hi := len(col), -1
	for x, p := range t {
		v := geo.SqDist(q0, p)
		if v > bound {
			v = math.Inf(1)
		} else {
			lo, hi = min(lo, x), x
		}
		col[x] = v
	}
	return lo, hi
}

func (frechetKernel) row0(row []float64, p geo.Point, q []geo.Point, bound float64) int {
	acc := 0.0
	for j, qj := range q {
		if d := geo.SqDist(p, qj); d > acc {
			if acc = d; acc > bound {
				return j - 1
			}
		}
		row[j] = acc
	}
	return len(q) - 1
}

// step is frechetExtendRow over the live range, in squared distances; see
// dtwKernel.step.
func (frechetKernel) step(line []float64, p geo.Point, seq []geo.Point, lo, hi int, bound float64) (int, int) {
	inf := math.Inf(1)
	newLo, newHi := len(line), -1
	diag, left := inf, inf
	x := lo
	for ; x <= hi; x++ {
		up := line[x]
		best := diag
		if up < best {
			best = up
		}
		if left < best {
			best = left
		}
		v := inf
		if best < inf {
			if v = geo.SqDist(p, seq[x]); v < best {
				v = best
			}
			if v > bound {
				v = inf
			} else {
				newLo, newHi = min(newLo, x), x
			}
		}
		line[x] = v
		diag, left = up, v
	}
	for ; x < len(line); x++ {
		best := left
		if diag < best {
			best = diag
		}
		v := geo.SqDist(p, seq[x])
		if v < best {
			v = best
		}
		if v > bound {
			break
		}
		line[x] = v
		newLo, newHi = min(newLo, x), x
		diag, left = inf, v
	}
	return newLo, newHi
}
