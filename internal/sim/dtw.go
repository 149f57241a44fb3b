package sim

import (
	"math"

	"simsub/internal/geo"
	"simsub/internal/traj"
)

func init() { Register("dtw", func() Measure { return DTW{} }) }

// DTW is the classical Dynamic Time Warping dissimilarity (Yi et al., ICDE
// 1998), Equation 1 of the paper:
//
//	D(i,j) = d(p_i,q_j) + min(D(i-1,j-1), D(i-1,j), D(i,j-1))
//
// with boundary rows/columns accumulating distances against the first point.
// Complexities: Φ = O(n·m), Φinc = Φini = O(m).
type DTW struct{}

// Name implements Measure.
func (DTW) Name() string { return "dtw" }

// Dist computes the DTW distance between t and q from scratch in O(n·m)
// time and O(m) space. Both trajectories must be non-empty; the distance of
// anything against an empty trajectory is +Inf.
func (DTW) Dist(t, q traj.Trajectory) float64 {
	n, m := t.Len(), q.Len()
	if n == 0 || m == 0 {
		return math.Inf(1)
	}
	row := getRow(m)
	defer putRow(row)
	dtwFirstRow(row, t.Pt(0), q)
	for i := 1; i < n; i++ {
		dtwExtendRow(row, t.Pt(i), q)
	}
	return row[m-1]
}

// dtwFirstRow fills row with the DP row of a one-point data sequence p:
// D(0,j) = sum_{k<=j} d(p,q_k).
func dtwFirstRow(row []float64, p geo.Point, q traj.Trajectory) {
	acc := 0.0
	for j := range row {
		acc += geo.Dist(p, q.Pt(j))
		row[j] = acc
	}
}

// dtwExtendRow advances the DP by one data point in place: on entry row
// holds D(i-1, ·); on exit it holds D(i, ·). It returns the new row's
// minimum cell, the early-abandoning pivot: DP cells are a non-negative
// cost plus a minimum over earlier cells, so the row minimum never
// decreases as the data point index grows, and every future distance (a
// future row's last cell) is at least the current row minimum. The
// minimum is tracked with the builtin min, which compiles branch-free, so
// callers that ignore it (Push) pay next to nothing for it; cells are
// never NaN or -0 on finite input, where min agrees with a < comparison.
func dtwExtendRow(row []float64, p geo.Point, q traj.Trajectory) float64 {
	m := len(row)
	prevDiag := row[0] // D(i-1, 0)
	row[0] = geo.Dist(p, q.Pt(0)) + prevDiag
	rowMin := row[0]
	for j := 1; j < m; j++ {
		prevUp := row[j] // D(i-1, j)
		best := prevDiag // D(i-1, j-1)
		if prevUp < best {
			best = prevUp
		}
		if row[j-1] < best { // D(i, j-1)
			best = row[j-1]
		}
		v := geo.Dist(p, q.Pt(j)) + best
		row[j] = v
		rowMin = min(rowMin, v)
		prevDiag = prevUp
	}
	return rowMin
}

// dtwInc is DTW's one computer: it keeps the last DP row (over query
// indices) and extends it by one data point per Push. The row is
// pool-backed; see pool.go for the ownership rules.
type dtwInc struct {
	seq
	row []float64
}

func newDTWInc(t, q traj.Trajectory) *dtwInc {
	return &dtwInc{seq: seq{t: t, q: q}, row: getRow(q.Len())}
}

// NewIncremental implements Measure.
func (DTW) NewIncremental(t, q traj.Trajectory) Incremental { return newDTWInc(t, q) }

func (c *dtwInc) Push(p geo.Point) float64 {
	if c.n == 0 {
		dtwFirstRow(c.row, p, c.q)
	} else {
		dtwExtendRow(c.row, p, c.q)
	}
	c.n++
	return c.row[len(c.row)-1]
}

func (c *dtwInc) Init(i int) float64 { return c.Push(c.begin(i)) }

func (c *dtwInc) Extend() float64 { return c.Push(c.next()) }

// ExtendAbandoning implements Incremental; see dtwExtendRow for the
// monotone-row-minimum argument.
func (c *dtwInc) ExtendAbandoning(tau float64) (float64, bool) {
	rowMin := dtwExtendRow(c.row, c.next(), c.q)
	c.n++
	if rowMin > tau {
		return rowMin, true
	}
	return c.row[len(c.row)-1], false
}

// Release implements Releaser.
func (c *dtwInc) Release() {
	putRow(c.row)
	c.row = nil
}

// CDTW is DTW constrained to a Sakoe-Chiba band: data point p_i may only be
// aligned with query points q_j whose index satisfies
// |j·n/m - i| <= R·n (equivalently the paper's j ∈ [i-R·|T|, i+R·|T|] after
// rescaling the two index ranges onto each other). R ∈ [0,1]; R = 1 recovers
// unconstrained DTW. Cells outside the band are +Inf. This is the distance
// UCR and Spring are evaluated with in Figures 8 and 13.
type CDTW struct {
	// R is the relative band width in [0, 1].
	R float64
}

// Name implements Measure.
func (c CDTW) Name() string { return "cdtw" }

// Dist computes band-constrained DTW from scratch. Unreachable alignments
// yield +Inf.
func (c CDTW) Dist(t, q traj.Trajectory) float64 {
	n, m := t.Len(), q.Len()
	if n == 0 || m == 0 {
		return math.Inf(1)
	}
	w := c.bandWidth(n, m)
	inf := math.Inf(1)
	prev := getRow(m)
	cur := getRow(m)
	defer putRow(prev)
	defer putRow(cur)
	for j := range prev {
		prev[j] = inf
	}
	for j := range cur {
		cur[j] = inf
	}
	// Each buffer is +Inf outside the band of the row it last held
	// ([cLo,cHi] for cur, [pLo,pHi] for prev; empty to start). A new row
	// only needs the stale cells of its buffer's old band that the new
	// band does not overwrite reset to +Inf — O(w) per data point instead
	// of the former full O(m) clear.
	pLo, pHi := 0, -1
	cLo, cHi := 0, -1
	for i := 0; i < n; i++ {
		lo, hi := bandRange(i, n, m, w)
		for j := cLo; j <= cHi && j < lo; j++ {
			cur[j] = inf
		}
		for j := cHi; j >= cLo && j > hi; j-- {
			cur[j] = inf
		}
		for j := lo; j <= hi; j++ {
			d := geo.Dist(t.Pt(i), q.Pt(j))
			switch {
			case i == 0 && j == 0:
				cur[j] = d
			case i == 0:
				cur[j] = d + cur[j-1]
			case j == 0:
				cur[j] = d + prev[j]
			default:
				best := prev[j-1]
				if prev[j] < best {
					best = prev[j]
				}
				if cur[j-1] < best {
					best = cur[j-1]
				}
				cur[j] = d + best
			}
		}
		prev, cur = cur, prev
		cLo, cHi, pLo, pHi = pLo, pHi, lo, hi
	}
	return prev[m-1]
}

// bandWidth returns the absolute half-width of the band in query-index
// units: R scaled by the larger sequence length, minimum 1 so the diagonal
// is always reachable.
func (c CDTW) bandWidth(n, m int) int {
	l := n
	if m > l {
		l = m
	}
	w := int(math.Ceil(c.R * float64(l)))
	if w < 1 {
		w = 1
	}
	return w
}

// bandRange returns the inclusive query-index range reachable from data
// index i under half-width w, after mapping i onto the query index scale.
func bandRange(i, n, m, w int) (lo, hi int) {
	center := 0
	if n > 1 {
		center = i * (m - 1) / (n - 1)
	}
	lo, hi = center-w, center+w
	if lo < 0 {
		lo = 0
	}
	if hi > m-1 {
		hi = m - 1
	}
	return lo, hi
}

// NewIncremental implements Measure. The band depends on the final
// subtrajectory length, so CDTW's computer buffers its points: each Extend
// recomputes from scratch at cost Φ.
func (c CDTW) NewIncremental(t, q traj.Trajectory) Incremental {
	return &bufferStream{seq: seq{t: t, q: q}, m: c}
}

// bufferStream is CDTW's computer: it accumulates points and calls Dist
// from scratch, because CDTW's Sakoe-Chiba band is laid along the final
// subtrajectory's own diagonal, so no row of an earlier prefix can be
// extended (cost Φ per Push). CDTW is only used by the UCR/Spring
// comparison (Figures 8 and 13), which scores fixed-length windows from
// scratch and never relies on this computer being cheap.
type bufferStream struct {
	seq
	m   CDTW
	pts []geo.Point
}

func (s *bufferStream) Push(p geo.Point) float64 {
	if s.n == 0 {
		s.pts = s.pts[:0]
	}
	s.pts = append(s.pts, p)
	s.n++
	return s.m.Dist(traj.Trajectory{Points: s.pts}, s.q)
}

func (s *bufferStream) Init(i int) float64 { return s.Push(s.begin(i)) }

func (s *bufferStream) Extend() float64 { return s.Push(s.next()) }

// ExtendAbandoning implements Incremental. A band laid along the final
// length gives no monotone row minimum, so it never abandons.
func (s *bufferStream) ExtendAbandoning(float64) (float64, bool) { return s.Extend(), false }
