package sim

import (
	"math"

	"simsub/internal/geo"
	"simsub/internal/traj"
)

// This file is the free-start DP: the best subtrajectory T[i,j] of T against
// Q, over EVERY start and end, in O(n·m) time where the ExactS enumeration
// spends O(n²·m). It is the recurrence SPRING (Sakurai et al., ICDE 2007)
// runs with star padding — query column 0 may restart at every data point:
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
// ERP and EDR may delete data points, so their column 0 does not simply
// restart. They restart from a base row instead: B(j), the cost of the
// query prefix q[0..j-1] against no data point (the prefix's gap costs for
// ERP, j for EDR), is where every start's row begins. Folding B into the
// carried row before each data point and running the measure's own
// extendRow gives
//
//	S(x,·) = extendRow(min(S(x-1,·), B), p_x)
//
// which is the same argument with the base row where SPRING has star
// padding: extendRow adds non-negative costs to minima of earlier cells,
// so it distributes over the elementwise minimum and S(x,j) =
// min_{i<=x} D_i(x,j) bit for bit, the start i = x entering through B.
// These cells are kept exact; none is marked dead.
//
// The pass runs in up to three phases over each measure's one step kernel
// (dtwKernel.step, frechetKernel.step, ERP.extendRow, EDR.extendRow):
//
//   - the gate. DTW and Fréchet run it query-major (columnGate): one
//     pooled column S(·,j) over the n data points advances one query point
//     at a time, and once every cell is dead the minimum is beyond tau and
//     the pass abandons. ERP and EDR run it data-major
//     (baseRowKernel.gate): one row over the query advances one data point
//     at a time from the base row, and d* is the minimum of its last cell.
//     Beyond (DTW, Fréchet) runs the gate alone: a search that only needs
//     to know whether d* exceeds tau skips the other two phases. The
//     query-major gate also reports end, the last x with S(x,m-1) at d*:
//     no interval at d* ends later, so the later phases stop there.
//   - the reverse gate (DTW, Fréchet; columnStarts): the same query-major
//     pass over the reversed pair — T[0..end] and Q both reversed, into
//     pooled scratch — at d*·(1+δ), δ = SuffixSlack (0 for Fréchet). Its
//     last column holds, for each start i, R(i): the least reversed-fold
//     value of any interval starting at i. The first interval at d* has a
//     forward fold of exactly d*, so its reversed fold is within d*·(1+δ)
//     (the argument of SuffixSlack, the other way round) and R(i*) is
//     live; a start whose R(i) is dead holds no interval at d*. The slack
//     is required: against query terms 1, 2⁻⁵³, 2⁻⁵³ a point at the origin
//     folds to 1 forward and to 1+2⁻⁵² reversed. ERP and EDR try every
//     start: their reverse gate would be data-major, could not abandon and
//     would have to run to its end to reach start 0 — a second unpruned
//     gate.
//   - the interval rows, data-major at tau = d*: for each start i the
//     reverse gate keeps, in order, the per-start row D_i(x,·) over the
//     query advances one data point at a time. The first (i, x) whose last
//     cell is live is the lexicographically first interval at distance d*,
//     the very one the enumeration's strict first-minimizer rule keeps; a
//     start whose row dies first holds no interval at d*. Without the
//     reverse gate every start before i* is walked and every cell
//     recomputes a point distance, which is what a DTW cell costs; with it
//     the common case is one row.

// FreeStartMeasure is an optional Measure capability: the exact best
// subtrajectory without enumerating them. DTW, Fréchet, ERP and EDR offer
// it. Measures whose cells depend on where the subtrajectory starts
// (CDTW's band is laid along the subtrajectory's own diagonal) cannot.
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

// MinSub implements FreeStartMeasure. The query's gap costs are computed
// once per call, as NewIncremental computes them once per computer.
func (e ERP) MinSub(t, q traj.Trajectory, tau float64) (traj.Interval, float64, bool) {
	gq := getRow(q.Len())
	defer putRow(gq)
	e.gapCostsInto(gq, q)
	return minSub(baseRowKernel[erpRows]{erpRows{e, gq}}, t, q, tau)
}

// MinSub implements FreeStartMeasure.
func (e EDR) MinSub(t, q traj.Trajectory, tau float64) (traj.Interval, float64, bool) {
	return minSub(baseRowKernel[EDR]{e}, t, q, tau)
}

// Beyond reports whether every non-empty subtrajectory of t is strictly
// farther than tau from q: MinSub's gate alone, without the phases that
// locate the interval, true exactly when MinSub would abandon. It is false
// for an empty t or q.
func (DTW) Beyond(t, q traj.Trajectory, tau float64) bool {
	return beyond(dtwKernel{}, t, q, tau)
}

// Beyond is DTW.Beyond for Fréchet.
func (Frechet) Beyond(t, q traj.Trajectory, tau float64) bool {
	return beyond(frechetKernel{}, t, q, tau)
}

// freeStartKernel is the measure-specific part of the pass, in the domain
// the cells live in (distances for DTW, ERP and EDR, squared distances for
// Fréchet).
type freeStartKernel interface {
	// bound maps a distance threshold into the cell domain.
	bound(tau float64) float64
	// dist maps a cell value back to a distance.
	dist(v float64) float64
	// gate runs the free-start recurrence over the pair and returns the
	// minimum v of its last query column and an end no interval at that
	// minimum ends after; live is false when every cell is beyond bound,
	// and v and end then carry no information.
	gate(t, q []geo.Point, bound float64) (v float64, end int, live bool)
	// starts returns the starts the interval rows try for the minimum d
	// over intervals of t: a superset of those holding an interval at d.
	starts(t, q []geo.Point, d float64) startSet
	// rowLen is the length of a start's row against an m-point query.
	rowLen(m int) int
	// row0 fills a start's first row from its data point p and returns
	// its last live index (-1: none).
	row0(row []float64, p geo.Point, q []geo.Point, bound float64) (hi int)
	// step advances line, live on [lo, hi], by one point p against seq
	// and returns the new live range.
	step(line []float64, p geo.Point, seq []geo.Point, lo, hi int, bound float64) (int, int)
}

// minSub runs the gate and, within tau, the reverse gate and the interval
// rows. It takes the kernel as a type parameter, not an interface value, so
// a kernel carrying per-call state (ERP's gap costs) is not boxed and the
// pass allocates nothing.
func minSub[K freeStartKernel](k K, t, q traj.Trajectory, tau float64) (traj.Interval, float64, bool) {
	n, m := t.Len(), q.Len()
	if n == 0 || m == 0 {
		return traj.Interval{}, math.Inf(1), false
	}
	v, end, live := k.gate(t.Points, q.Points, k.bound(tau))
	if !live {
		// every cell dead: the minimum is beyond tau, or is +Inf (every
		// cell +Inf) and the enumeration keeps no interval but the zero one
		return traj.Interval{}, math.Inf(1), math.Inf(1) > tau
	}
	d := k.dist(v)

	// the interval rows at tau = d, over the starts that may hold an
	// interval at d: a live last cell is exactly d
	bound := k.bound(d)
	s := k.starts(t.Points[:end+1], q.Points, d)
	defer putRow(s.rev)
	row := getRow(k.rowLen(m))
	defer putRow(row)
	for i := s.lo; i <= s.hi; i++ {
		if !s.has(i) {
			continue
		}
		lo, hi := 0, k.row0(row, t.Pt(i), q.Points, bound)
		for x := i; lo <= hi; {
			if hi == len(row)-1 {
				return traj.Interval{I: i, J: x}, d, false
			}
			if x++; x > end {
				break
			}
			lo, hi = k.step(row, t.Pt(x), q.Points, lo, hi, bound)
		}
	}
	panic("sim: the free-start minimum is attained by no interval")
}

// beyond is minSub's gate phase and abandon decision on their own.
func beyond[K freeStartKernel](k K, t, q traj.Trajectory, tau float64) bool {
	if t.Len() == 0 || q.Len() == 0 {
		return false
	}
	_, _, live := k.gate(t.Points, q.Points, k.bound(tau))
	return !live && math.Inf(1) > tau
}

// startSet is the starts the interval rows try: every i in [lo, hi] when
// rev is nil, else those whose reverse-gate cell rev[len(rev)-1-i] is
// within bound.
type startSet struct {
	rev    []float64 // pooled; nil: every start in range
	bound  float64
	lo, hi int
}

func (s startSet) has(i int) bool {
	return s.rev == nil || s.rev[len(s.rev)-1-i] <= s.bound
}

// columnKernel is the part of DTW's and Fréchet's kernels the query-major
// gate runs on.
type columnKernel interface {
	bound(tau float64) float64
	dist(v float64) float64
	// column0 fills the gate's first column, S(x,0) = d(q0, p_x), and
	// returns its live range (lo > hi: every cell is dead).
	column0(col []float64, q0 geo.Point, t []geo.Point, bound float64) (lo, hi int)
	step(line []float64, p geo.Point, seq []geo.Point, lo, hi int, bound float64) (int, int)
}

// column runs the query-major pass over col, one cell per data point: it
// advances S(·,j) one query point at a time and returns the live range of
// the last column (lo > hi: every cell died, possibly before the last
// query point). Within the range a dead cell holds +Inf; outside it col is
// garbage.
func column[K columnKernel](k K, col []float64, t, q []geo.Point, bound float64) (lo, hi int) {
	lo, hi = k.column0(col, q[0], t, bound)
	for j := 1; j < len(q) && lo <= hi; j++ {
		lo, hi = k.step(col, q[j], t, lo, hi, bound)
	}
	return lo, hi
}

// columnGate is DTW's and Fréchet's gate: one pooled column S(·,j) over the
// data points advances one query point at a time, and once every cell is
// dead the minimum is beyond bound. end is the last data point whose last
// cell lies within bound(dist(v)): S(x,m-1) is the least distance of an
// interval ending at x, so no interval at the minimum ends later.
func columnGate[K columnKernel](k K, t, q []geo.Point, bound float64) (float64, int, bool) {
	col := getRow(len(t))
	defer putRow(col)
	lo, hi := column(k, col, t, q, bound)
	if lo > hi {
		return math.Inf(1), 0, false
	}
	v := math.Inf(1)
	for _, c := range col[lo : hi+1] {
		if c < v {
			v = c
		}
	}
	at := k.bound(k.dist(v))
	end := hi
	for col[end] > at {
		end--
	}
	return v, end, true
}

// columnStarts is DTW's and Fréchet's reverse gate: the query-major pass
// over the reversed pair (t and q reversed, copied into pooled scratch) at
// bound. Entry x' of its last column is the least reversed-fold cell of an
// interval of t starting at i = len(t)-1-x', so a start whose entry is
// beyond bound holds no interval whose reversed fold is within it. At an
// infinite bound nothing is pruned and every start is tried.
func columnStarts[K columnKernel](k K, t, q []geo.Point, bound float64) startSet {
	n, m := len(t), len(q)
	if math.IsInf(bound, 1) {
		return startSet{lo: 0, hi: n - 1}
	}
	pts := pointPool.get(n + m)
	defer pointPool.put(pts)
	rt, rq := pts[:n], pts[n:]
	for x, p := range t {
		rt[n-1-x] = p
	}
	for j, p := range q {
		rq[m-1-j] = p
	}
	rev := getRow(n)
	lo, hi := column(k, rev, rt, rq, bound)
	return startSet{rev: rev, bound: bound, lo: n - 1 - hi, hi: n - 1 - lo}
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

func (k dtwKernel) gate(t, q []geo.Point, bound float64) (float64, int, bool) {
	return columnGate(k, t, q, bound)
}

// starts runs the reverse gate at d·(1+δ), δ = SuffixSlack: the reversed
// pass folds each path's costs in the opposite order, so the interval at
// d may fold some ulps above d there.
func (k dtwKernel) starts(t, q []geo.Point, d float64) startSet {
	return columnStarts(k, t, q, d*(1+SuffixSlack(DTW{}, len(t), len(q))))
}

func (dtwKernel) rowLen(m int) int { return m }

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

func (k frechetKernel) gate(t, q []geo.Point, bound float64) (float64, int, bool) {
	return columnGate(k, t, q, bound)
}

// starts runs the reverse gate at sqBound(d): a max is the same in either
// order, so Fréchet needs no slack.
func (k frechetKernel) starts(t, q []geo.Point, d float64) startSet {
	return columnStarts(k, t, q, k.bound(d))
}

func (frechetKernel) rowLen(m int) int { return m }

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

// editRows is what the pass needs of ERP and EDR: the base row, the cost of
// the query prefix q[0..j-1] against no data point, and the measure's one
// row kernel. Both keep m+1 cells, cell 0 for the empty query prefix.
type editRows interface {
	baseRow(row []float64)
	extendRow(row []float64, p geo.Point, q traj.Trajectory) float64
}

// erpRows is ERP with the query's gap costs of one MinSub call.
type erpRows struct {
	e  ERP
	gq []float64
}

func (r erpRows) baseRow(row []float64) { erpBaseRow(row, r.gq) }

func (r erpRows) extendRow(row []float64, p geo.Point, q traj.Trajectory) float64 {
	return r.e.extendRow(row, p, q, r.gq)
}

// baseRowKernel is ERP's and EDR's part of the pass: cells are edit costs,
// kept exact and never marked dead. Every start's row begins as the same
// base row, so the gate restarts by folding the base row into the carried
// row before each data point.
type baseRowKernel[E editRows] struct{ e E }

func (baseRowKernel[E]) bound(tau float64) float64 { return tau }

func (baseRowKernel[E]) dist(v float64) float64 { return v }

// gate is the data-major pass of the file comment: before data point x
// the carried row S(x-1,·) takes the elementwise minimum with the base row
// — the start i = x, which has consumed no data point yet — and one
// extendRow advances it, so cell 0 comes out as the one-point start's own
// cost. d* is the minimum over x of the last cell; the end it reports is
// the last data point.
func (k baseRowKernel[E]) gate(t, q []geo.Point, bound float64) (float64, int, bool) {
	m := len(q)
	row, base := getRow(m+1), getRow(m+1)
	defer putRow(row)
	defer putRow(base)
	k.e.baseRow(base)
	copy(row, base)
	v := math.Inf(1)
	for _, p := range t {
		for j, b := range base {
			row[j] = min(row[j], b)
		}
		k.e.extendRow(row, p, traj.Trajectory{Points: q})
		v = min(v, row[m])
	}
	return v, len(t) - 1, v <= bound
}

// starts is every start: a reverse gate would be data-major too, could not
// abandon, and would have to run to its end to reach start 0.
func (baseRowKernel[E]) starts(t, _ []geo.Point, _ float64) startSet {
	return startSet{lo: 0, hi: len(t) - 1}
}

func (baseRowKernel[E]) rowLen(m int) int { return m + 1 }

func (k baseRowKernel[E]) row0(row []float64, p geo.Point, q []geo.Point, bound float64) int {
	k.e.baseRow(row)
	_, hi := k.step(row, p, q, 0, len(row)-1, bound)
	return hi
}

// step is one extendRow over the whole row. The cells are exact, so the
// live range it returns brackets the cells within bound: [0, m] when the
// last one is, [0, m-1] when only an earlier one is, and empty once the row
// minimum is beyond bound — no later cell of the row can come back, since
// the row minimum never decreases.
func (k baseRowKernel[E]) step(row []float64, p geo.Point, q []geo.Point, _, _ int, bound float64) (int, int) {
	rowMin := k.e.extendRow(row, p, traj.Trajectory{Points: q})
	switch last := len(row) - 1; {
	case row[last] <= bound:
		return 0, last
	case rowMin <= bound:
		return 0, last - 1
	}
	return 0, -1
}
