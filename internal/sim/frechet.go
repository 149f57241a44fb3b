package sim

import (
	"math"

	"simsub/internal/geo"
	"simsub/internal/traj"
)

func init() { Register("frechet", func() Measure { return Frechet{} }) }

// Frechet is the discrete Fréchet distance (Alt & Godau 1995), Equation 2 of
// the paper:
//
//	F(i,j) = max(d(p_i,q_j), min(F(i-1,j-1), F(i-1,j), F(i,j-1)))
//
// with boundary rows/columns taking running maxima against the first point.
// Complexities: Φ = O(n·m), Φinc = Φini = O(m).
type Frechet struct{}

// Name implements Measure.
func (Frechet) Name() string { return "frechet" }

// Dist computes the discrete Fréchet distance from scratch in O(n·m) time
// and O(m) space.
func (Frechet) Dist(t, q traj.Trajectory) float64 {
	n, m := t.Len(), q.Len()
	if n == 0 || m == 0 {
		return math.Inf(1)
	}
	row := getRow(m)
	defer putRow(row)
	frechetFirstRow(row, t.Pt(0), q)
	for i := 1; i < n; i++ {
		frechetExtendRow(row, t.Pt(i), q)
	}
	return row[m-1]
}

// frechetFirstRow fills row with the DP row of a one-point data sequence p:
// F(0,j) = max_{k<=j} d(p,q_k).
func frechetFirstRow(row []float64, p geo.Point, q traj.Trajectory) {
	acc := 0.0
	for j := range row {
		if d := geo.Dist(p, q.Pt(j)); d > acc {
			acc = d
		}
		row[j] = acc
	}
}

// frechetExtendRow advances the DP by one data point in place and returns
// the new row's minimum cell: every cell is max(cost, min of earlier
// cells), so the row minimum never decreases and lower-bounds all future
// distances.
func frechetExtendRow(row []float64, p geo.Point, q traj.Trajectory) float64 {
	m := len(row)
	prevDiag := row[0]
	d0 := geo.Dist(p, q.Pt(0))
	if d0 > prevDiag {
		row[0] = d0
	} else {
		row[0] = prevDiag
	}
	rowMin := row[0]
	for j := 1; j < m; j++ {
		prevUp := row[j]
		best := prevDiag
		if prevUp < best {
			best = prevUp
		}
		if row[j-1] < best {
			best = row[j-1]
		}
		if d := geo.Dist(p, q.Pt(j)); d > best {
			best = d
		}
		row[j] = best
		rowMin = min(rowMin, best) // branch-free; see dtwExtendRow
		prevDiag = prevUp
	}
	return rowMin
}

// frechetInc is Fréchet's one computer.
type frechetInc struct {
	seq
	row []float64
}

// NewIncremental implements Measure.
func (Frechet) NewIncremental(t, q traj.Trajectory) Incremental {
	return &frechetInc{seq: seq{t: t, q: q}, row: getRow(q.Len())}
}

func (c *frechetInc) Push(p geo.Point) float64 {
	if c.n == 0 {
		frechetFirstRow(c.row, p, c.q)
	} else {
		frechetExtendRow(c.row, p, c.q)
	}
	c.n++
	return c.row[len(c.row)-1]
}

func (c *frechetInc) Init(i int) float64 { return c.Push(c.begin(i)) }

func (c *frechetInc) Extend() float64 { return c.Push(c.next()) }

// ExtendAbandoning implements Incremental; see frechetExtendRow for the
// monotone-row-minimum argument.
func (c *frechetInc) ExtendAbandoning(tau float64) (float64, bool) {
	rowMin := frechetExtendRow(c.row, c.next(), c.q)
	c.n++
	if rowMin > tau {
		return rowMin, true
	}
	return c.row[len(c.row)-1], false
}

// Release implements Releaser.
func (c *frechetInc) Release() {
	putRow(c.row)
	c.row = nil
}
