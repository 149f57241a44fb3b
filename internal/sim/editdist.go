package sim

import (
	"math"

	"simsub/internal/geo"
	"simsub/internal/traj"
)

// This file implements the point-based edit-distance family reviewed in §2
// of the paper: ERP (Chen & Ng, VLDB 2004) and EDR (Chen et al., SIGMOD
// 2005). They are listed by the paper as measurements the abstract Θ can be
// instantiated with; both expose the same Incremental contract with
// Φinc = Φini = O(m).

func init() {
	Register("erp", func() Measure { return ERP{} })
	Register("edr", func() Measure { return EDR{Eps: 0.25} })
}

// ERP is the Edit distance with Real Penalty. Gaps are penalized by the
// distance to a fixed gap point Gap (the origin by default), which makes ERP
// a metric.
//
//	ERP(i,j) = min( ERP(i-1,j-1) + d(p_i,q_j),
//	                ERP(i-1,j)   + d(p_i,g),
//	                ERP(i,j-1)   + d(q_j,g) )
type ERP struct {
	// Gap is the reference point g; the zero value uses the origin.
	Gap geo.Point
}

// Name implements Measure.
func (ERP) Name() string { return "erp" }

// Dist computes ERP from scratch in O(n·m) time and O(m) space.
func (e ERP) Dist(t, q traj.Trajectory) float64 {
	n, m := t.Len(), q.Len()
	if n == 0 || m == 0 {
		return math.Inf(1)
	}
	row, gq := getRow(m+1), getRow(m)
	defer putRow(row)
	defer putRow(gq)
	e.gapCostsInto(gq, q)
	erpBaseRow(row, gq)
	for i := 0; i < n; i++ {
		e.extendRow(row, t.Pt(i), q, gq)
	}
	return row[m]
}

// gapCostsInto fills gq with d(q_j, Gap), the cost of deleting each query
// point. They depend on the query alone, so a caller computes them once and
// hands them to every extendRow.
func (e ERP) gapCostsInto(gq []float64, q traj.Trajectory) {
	for j := range gq {
		gq[j] = geo.Dist(q.Pt(j), e.Gap)
	}
}

// erpBaseRow fills row with ERP(∅, q[0..j-1]) for j = 0..m: the cost of
// deleting the whole query prefix, from the gap costs gq. row must have
// m+1 cells.
func erpBaseRow(row, gq []float64) {
	row[0] = 0
	for j, g := range gq {
		row[j+1] = row[j] + g
	}
}

// extendRow advances the DP by one data point in place; row has m+1 cells
// with row[j] = ERP(prefix, q[0..j-1]) and gq holds q's gap costs
// (gapCostsInto). It returns the new row's minimum: every cell adds a
// non-negative cost to a minimum over earlier cells, so the row minimum
// never decreases and lower-bounds all future distances.
func (e ERP) extendRow(row []float64, p geo.Point, q traj.Trajectory, gq []float64) float64 {
	m := q.Len()
	gp := geo.Dist(p, e.Gap)
	prevDiag := row[0]
	row[0] += gp // delete p
	rowMin := row[0]
	for j := 1; j <= m; j++ {
		prevUp := row[j]
		match := prevDiag + geo.Dist(p, q.Pt(j-1))
		delP := prevUp + gp
		delQ := row[j-1] + gq[j-1]
		best := match
		if delP < best {
			best = delP
		}
		if delQ < best {
			best = delQ
		}
		row[j] = best
		rowMin = min(rowMin, best) // branch-free; see dtwExtendRow
		prevDiag = prevUp
	}
	return rowMin
}

// erpInc is ERP's one computer. gq holds the query's gap costs, computed
// once in NewIncremental.
type erpInc struct {
	seq
	meas    ERP
	row, gq []float64
}

// NewIncremental implements Measure.
func (e ERP) NewIncremental(t, q traj.Trajectory) Incremental {
	c := &erpInc{seq: seq{t: t, q: q}, meas: e, row: getRow(q.Len() + 1), gq: getRow(q.Len())}
	e.gapCostsInto(c.gq, q)
	return c
}

func (c *erpInc) Push(p geo.Point) float64 {
	if c.n == 0 {
		erpBaseRow(c.row, c.gq)
	}
	c.meas.extendRow(c.row, p, c.q, c.gq)
	c.n++
	return c.row[len(c.row)-1]
}

func (c *erpInc) Init(i int) float64 { return c.Push(c.begin(i)) }

func (c *erpInc) Extend() float64 { return c.Push(c.next()) }

// ExtendAbandoning implements Incremental; see ERP.extendRow.
func (c *erpInc) ExtendAbandoning(tau float64) (float64, bool) {
	rowMin := c.meas.extendRow(c.row, c.next(), c.q, c.gq)
	c.n++
	if rowMin > tau {
		return rowMin, true
	}
	return c.row[len(c.row)-1], false
}

// Release implements Releaser.
func (c *erpInc) Release() {
	putRow(c.row)
	putRow(c.gq)
	c.row, c.gq = nil, nil
}

// EDR is the Edit Distance on Real sequence: points match (cost 0) when
// within Eps in both coordinates, otherwise substitution/insertion/deletion
// cost 1. The raw edit count is returned (the common normalized variant is
// raw/max(n,m); algorithms in this library only compare distances of
// subtrajectories against a fixed query, for which the raw count is the
// standard choice).
type EDR struct {
	// Eps is the matching tolerance per coordinate.
	Eps float64
}

// Name implements Measure.
func (EDR) Name() string { return "edr" }

// match applies EDR's per-coordinate tolerance test.
func (e EDR) match(p, q geo.Point) bool {
	return math.Abs(p.X-q.X) <= e.Eps && math.Abs(p.Y-q.Y) <= e.Eps
}

// Dist computes EDR from scratch in O(n·m) time and O(m) space.
func (e EDR) Dist(t, q traj.Trajectory) float64 {
	n, m := t.Len(), q.Len()
	if n == 0 || m == 0 {
		return math.Inf(1)
	}
	row := getRow(m + 1)
	defer putRow(row)
	e.baseRow(row)
	for i := 0; i < n; i++ {
		e.extendRow(row, t.Pt(i), q)
	}
	return row[m]
}

// baseRow fills row with EDR(∅, q[0..j-1]) = j for j = 0..m: inserting
// the whole query prefix.
func (EDR) baseRow(row []float64) {
	for j := range row {
		row[j] = float64(j)
	}
}

// extendRow advances the DP by one data point in place and returns the new
// row's minimum: every cell adds a non-negative edit cost to a minimum over
// earlier cells, so the row minimum never decreases and lower-bounds all
// future distances.
func (e EDR) extendRow(row []float64, p geo.Point, q traj.Trajectory) float64 {
	m := q.Len()
	prevDiag := row[0]
	row[0]++
	rowMin := row[0]
	for j := 1; j <= m; j++ {
		prevUp := row[j]
		sub := prevDiag
		if !e.match(p, q.Pt(j-1)) {
			sub++
		}
		best := sub
		if prevUp+1 < best {
			best = prevUp + 1
		}
		if row[j-1]+1 < best {
			best = row[j-1] + 1
		}
		row[j] = best
		rowMin = min(rowMin, best) // branch-free; see dtwExtendRow
		prevDiag = prevUp
	}
	return rowMin
}

// edrInc is EDR's one computer.
type edrInc struct {
	seq
	meas EDR
	row  []float64
}

// NewIncremental implements Measure.
func (e EDR) NewIncremental(t, q traj.Trajectory) Incremental {
	return &edrInc{seq: seq{t: t, q: q}, meas: e, row: getRow(q.Len() + 1)}
}

func (c *edrInc) Push(p geo.Point) float64 {
	if c.n == 0 {
		c.meas.baseRow(c.row)
	}
	c.meas.extendRow(c.row, p, c.q)
	c.n++
	return c.row[len(c.row)-1]
}

func (c *edrInc) Init(i int) float64 { return c.Push(c.begin(i)) }

func (c *edrInc) Extend() float64 { return c.Push(c.next()) }

// ExtendAbandoning implements Incremental; see EDR.extendRow.
func (c *edrInc) ExtendAbandoning(tau float64) (float64, bool) {
	rowMin := c.meas.extendRow(c.row, c.next(), c.q)
	c.n++
	if rowMin > tau {
		return rowMin, true
	}
	return c.row[len(c.row)-1], false
}

// Release implements Releaser.
func (c *edrInc) Release() {
	putRow(c.row)
	c.row = nil
}
