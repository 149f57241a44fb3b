package sim

import (
	"math"

	"simsub/internal/geo"
	"simsub/internal/traj"
)

// This file implements segment-matching measures in the spirit of
// EDS (Xie, SIGMOD 2014) and EDwP (Ranu et al., ICDE 2015), which the paper
// reviews in §2 as measurements the abstract Θ can be instantiated with.
//
// Both are edit distances over the segment sequences of the trajectories
// (a length-n trajectory has n-1 segments). The published EDwP additionally
// interpolates projection points dynamically; we use element-local gap costs
// instead so that the DP admits the O(m)-per-point incremental extension
// every measure in this package provides. The exact costs are documented on
// each type; DESIGN.md records this substitution.
//
// Trajectories with fewer than two points have no segments; both measures
// fall back to DTW for those degenerate inputs (this arises for the
// single-point Φini case of the Incremental contract).

// segment is a directed trajectory segment.
type segment struct {
	a, b geo.Point
}

func (s segment) length() float64 { return geo.Dist(s.a, s.b) }

// segmentsOf returns the n-1 segments of t.
func segmentsOf(t traj.Trajectory) []segment {
	n := t.Len()
	if n < 2 {
		return nil
	}
	out := make([]segment, n-1)
	for i := 0; i < n-1; i++ {
		out[i] = segment{a: t.Pt(i), b: t.Pt(i + 1)}
	}
	return out
}

// segCosts abstracts the per-element costs of a segment edit distance.
type segCosts interface {
	rep(e, f segment) float64
	gap(e segment) float64
}

// segDist computes a segment measure from scratch by running its computer
// over t, in O(n·m) time.
func segDist(cs segCosts, t, q traj.Trajectory) float64 {
	if t.Len() == 0 || q.Len() == 0 {
		return math.Inf(1)
	}
	c := newSegInc(cs, t, q)
	defer c.Release()
	d := c.Init(0)
	for c.End() < t.Len()-1 {
		d = c.Extend()
	}
	return d
}

// segBaseRow fills row with the DP row for an empty data prefix: inserting
// every query segment.
func segBaseRow(cs segCosts, row []float64, fs []segment) {
	row[0] = 0
	for j, f := range fs {
		row[j+1] = row[j] + cs.gap(f)
	}
}

// segExtendRow advances the DP by one data segment in place.
func segExtendRow(cs segCosts, row []float64, e segment, fs []segment) {
	prevDiag := row[0]
	row[0] += cs.gap(e)
	for j, f := range fs {
		prevUp := row[j+1]
		best := prevDiag + cs.rep(e, f)
		if v := prevUp + cs.gap(e); v < best {
			best = v
		}
		if v := row[j] + cs.gap(f); v < best {
			best = v
		}
		row[j+1] = best
		prevDiag = prevUp
	}
}

// EDS is a segment-based edit distance: replacing segment e with f costs the
// mean endpoint displacement (d(e.a,f.a)+d(e.b,f.b))/2, inserting or
// deleting a segment costs its length. Identical trajectories have
// distance 0.
type EDS struct{}

// Name implements Measure.
func (EDS) Name() string { return "eds" }

func (EDS) rep(e, f segment) float64 {
	return (geo.Dist(e.a, f.a) + geo.Dist(e.b, f.b)) / 2
}

func (EDS) gap(e segment) float64 { return e.length() }

// Dist computes EDS from scratch in O(n·m) time.
func (m EDS) Dist(t, q traj.Trajectory) float64 { return segDist(m, t, q) }

// NewIncremental implements Measure.
func (m EDS) NewIncremental(t, q traj.Trajectory) Incremental { return newSegInc(m, t, q) }

// EDwP is a segment-based edit distance with coverage-weighted replacement
// in the spirit of Ranu et al.: replacing e with f costs
// (d(e.a,f.a)+d(e.b,f.b))·(len(e)+len(f)), and a gap (insert/delete) of
// segment e costs len(e)². Longer mismatched stretches therefore dominate,
// matching EDwP's coverage intuition, while keeping costs element-local so
// the incremental contract holds (see the package comment on the published
// measure's dynamic interpolation).
type EDwP struct{}

// Name implements Measure.
func (EDwP) Name() string { return "edwp" }

func (EDwP) rep(e, f segment) float64 {
	return (geo.Dist(e.a, f.a) + geo.Dist(e.b, f.b)) * (e.length() + f.length())
}

func (EDwP) gap(e segment) float64 {
	l := e.length()
	return l * l
}

// Dist computes EDwP from scratch in O(n·m) time.
func (m EDwP) Dist(t, q traj.Trajectory) float64 { return segDist(m, t, q) }

// NewIncremental implements Measure.
func (m EDwP) NewIncremental(t, q traj.Trajectory) Incremental { return newSegInc(m, t, q) }

// segInc is the one computer of a segment measure. A sequence of k points
// has k-1 segments, so a single point, and every sequence against a
// one-point query, is scored by the DTW fallback, which the computer
// delegates to a DTW computer; the second point builds the first segment
// row.
type segInc struct {
	seq
	cs    segCosts
	qsegs []segment
	row   []float64 // segment DP row, len(qsegs)+1 cells
	dtw   *dtwInc
	last  geo.Point // the last point consumed
}

func newSegInc(cs segCosts, t, q traj.Trajectory) *segInc {
	qsegs := segmentsOf(q)
	return &segInc{
		seq:   seq{t: t, q: q},
		cs:    cs,
		qsegs: qsegs,
		row:   getRow(len(qsegs) + 1),
		dtw:   newDTWInc(traj.Trajectory{}, q),
	}
}

func (c *segInc) Push(p geo.Point) float64 {
	if c.n == 0 {
		c.dtw.Reset()
	}
	prev := c.last
	c.last = p
	c.n++
	if c.n == 1 || len(c.qsegs) == 0 {
		return c.dtw.Push(p)
	}
	if c.n == 2 {
		segBaseRow(c.cs, c.row, c.qsegs)
	}
	segExtendRow(c.cs, c.row, segment{a: prev, b: p}, c.qsegs)
	return c.row[len(c.qsegs)]
}

func (c *segInc) Init(i int) float64 { return c.Push(c.begin(i)) }

func (c *segInc) Extend() float64 { return c.Push(c.next()) }

// ExtendAbandoning implements Incremental. It never abandons, so a scan
// over a segment measure evaluates every extension.
func (c *segInc) ExtendAbandoning(float64) (float64, bool) { return c.Extend(), false }

// Release implements Releaser.
func (c *segInc) Release() {
	putRow(c.row)
	c.row = nil
	c.dtw.Release()
}
