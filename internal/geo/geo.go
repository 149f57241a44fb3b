// Package geo provides the planar-geometry substrate used throughout the
// SimSub library: points, Euclidean distances, minimum bounding rectangles
// (MBRs) and segment operations.
//
// All coordinates are float64 and live in an abstract planar space. Datasets
// normalize real-world coordinates into this space before search.
package geo

import (
	"fmt"
	"math"
)

// Point is a timestamped planar location. T is a timestamp in seconds; it is
// carried through the system but only segment-based measures (EDwP, EDS) and
// the dataset generators consult it.
type Point struct {
	X, Y float64
	T    float64
}

// Dist returns the Euclidean distance between p and q, ignoring timestamps.
func Dist(p, q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// SqDist returns the squared Euclidean distance between p and q. It avoids
// the square root and is the preferred primitive in hot loops that only
// compare distances.
func SqDist(p, q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return dx*dx + dy*dy
}

// Lerp linearly interpolates between p and q with parameter t in [0,1].
// Timestamps are interpolated as well.
func Lerp(p, q Point, t float64) Point {
	return Point{
		X: p.X + (q.X-p.X)*t,
		Y: p.Y + (q.Y-p.Y)*t,
		T: p.T + (q.T-p.T)*t,
	}
}

// Rect is an axis-aligned rectangle (a minimum bounding rectangle when
// derived from data). A Rect is valid when MinX <= MaxX and MinY <= MaxY.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// EmptyRect returns the identity element for Union: a rectangle that
// contains nothing and unions to the other operand.
func EmptyRect() Rect {
	return Rect{
		MinX: math.Inf(1), MinY: math.Inf(1),
		MaxX: math.Inf(-1), MaxY: math.Inf(-1),
	}
}

// IsEmpty reports whether r is the empty rectangle (contains no points).
func (r Rect) IsEmpty() bool {
	return r.MinX > r.MaxX || r.MinY > r.MaxY
}

// Contains reports whether p lies inside r (boundary inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// ContainsRect reports whether s lies entirely inside r.
func (r Rect) ContainsRect(s Rect) bool {
	if s.IsEmpty() {
		return true
	}
	return s.MinX >= r.MinX && s.MaxX <= r.MaxX && s.MinY >= r.MinY && s.MaxY <= r.MaxY
}

// Intersects reports whether r and s share at least one point.
func (r Rect) Intersects(s Rect) bool {
	if r.IsEmpty() || s.IsEmpty() {
		return false
	}
	return r.MinX <= s.MaxX && s.MinX <= r.MaxX && r.MinY <= s.MaxY && s.MinY <= r.MaxY
}

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	if r.IsEmpty() {
		return s
	}
	if s.IsEmpty() {
		return r
	}
	return Rect{
		MinX: math.Min(r.MinX, s.MinX),
		MinY: math.Min(r.MinY, s.MinY),
		MaxX: math.Max(r.MaxX, s.MaxX),
		MaxY: math.Max(r.MaxY, s.MaxY),
	}
}

// Extend returns the smallest rectangle containing r and p.
func (r Rect) Extend(p Point) Rect {
	return r.Union(Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y})
}

// Area returns the area of r; empty rectangles have area 0.
func (r Rect) Area() float64 {
	if r.IsEmpty() {
		return 0
	}
	return (r.MaxX - r.MinX) * (r.MaxY - r.MinY)
}

// Margin returns the half-perimeter of r, used by R-tree split heuristics.
func (r Rect) Margin() float64 {
	if r.IsEmpty() {
		return 0
	}
	return (r.MaxX - r.MinX) + (r.MaxY - r.MinY)
}

// Enlargement returns the area growth of r if it were extended to contain s.
func (r Rect) Enlargement(s Rect) float64 {
	return r.Union(s).Area() - r.Area()
}

// Center returns the geometric center of r.
func (r Rect) Center() Point {
	return Point{X: (r.MinX + r.MaxX) / 2, Y: (r.MinY + r.MaxY) / 2}
}

// Expand grows r by d on every side. Negative d shrinks it.
func (r Rect) Expand(d float64) Rect {
	if r.IsEmpty() {
		return r
	}
	return Rect{MinX: r.MinX - d, MinY: r.MinY - d, MaxX: r.MaxX + d, MaxY: r.MaxY + d}
}

// DistToPoint returns the minimum Euclidean distance from p to r
// (0 when p is inside r). This is the d(p, MBR(·)) primitive the adapted
// UCR LB_Keogh lower bound uses.
func (r Rect) DistToPoint(p Point) float64 {
	if r.IsEmpty() {
		return math.Inf(1)
	}
	dx := 0.0
	if p.X < r.MinX {
		dx = r.MinX - p.X
	} else if p.X > r.MaxX {
		dx = p.X - r.MaxX
	}
	dy := 0.0
	if p.Y < r.MinY {
		dy = r.MinY - p.Y
	} else if p.Y > r.MaxY {
		dy = p.Y - r.MaxY
	}
	return math.Sqrt(dx*dx + dy*dy)
}

// DistToRect returns the minimum Euclidean distance between any point of r
// and any point of s (0 when they intersect). It is the O(1) first stage of
// the subtrajectory lower-bound cascade: with precomputed MBRs it bounds
// every point-to-point distance between the two trajectories from below.
func (r Rect) DistToRect(s Rect) float64 {
	if r.IsEmpty() || s.IsEmpty() {
		return math.Inf(1)
	}
	dx := 0.0
	if s.MaxX < r.MinX {
		dx = r.MinX - s.MaxX
	} else if s.MinX > r.MaxX {
		dx = s.MinX - r.MaxX
	}
	dy := 0.0
	if s.MaxY < r.MinY {
		dy = r.MinY - s.MaxY
	} else if s.MinY > r.MaxY {
		dy = s.MinY - r.MaxY
	}
	return math.Sqrt(dx*dx + dy*dy)
}

// ChebyshevDistToPoint returns the minimum per-axis (L∞) distance from p to
// r: max of the horizontal and vertical gaps, 0 when p is inside r. A point
// can match a trajectory point under an EDR/LCSS tolerance eps only when its
// Chebyshev distance to the trajectory's MBR is at most eps.
func (r Rect) ChebyshevDistToPoint(p Point) float64 {
	if r.IsEmpty() {
		return math.Inf(1)
	}
	dx := 0.0
	if p.X < r.MinX {
		dx = r.MinX - p.X
	} else if p.X > r.MaxX {
		dx = p.X - r.MaxX
	}
	dy := 0.0
	if p.Y < r.MinY {
		dy = r.MinY - p.Y
	} else if p.Y > r.MaxY {
		dy = p.Y - r.MaxY
	}
	if dy > dx {
		return dy
	}
	return dx
}

// String implements fmt.Stringer for diagnostics.
func (r Rect) String() string {
	return fmt.Sprintf("Rect[%.4g,%.4g - %.4g,%.4g]", r.MinX, r.MinY, r.MaxX, r.MaxY)
}

// MBR returns the minimum bounding rectangle of the given points: the
// Extend fold, bit for bit. The fold runs as builtin min/max, which agree
// with the math.Min/math.Max under Union on every input but NaN — there
// math.Min lets an infinity win and canonicalizes the NaN's payload, the
// builtins propagate the NaN they met — so an axis that saw a NaN (the
// builtins make it NaN) is refolded through Extend.
func MBR(pts []Point) Rect {
	r := EmptyRect()
	for _, p := range pts {
		r.MinX, r.MaxX = min(r.MinX, p.X), max(r.MaxX, p.X)
		r.MinY, r.MaxY = min(r.MinY, p.Y), max(r.MaxY, p.Y)
	}
	if r.MinX != r.MinX || r.MinY != r.MinY {
		r = EmptyRect()
		for _, p := range pts {
			r = r.Extend(p)
		}
	}
	return r
}

// PointSegDist returns the minimum distance from point p to the segment ab.
func PointSegDist(p, a, b Point) float64 {
	abx, aby := b.X-a.X, b.Y-a.Y
	l2 := abx*abx + aby*aby
	if l2 == 0 {
		return Dist(p, a)
	}
	t := ((p.X-a.X)*abx + (p.Y-a.Y)*aby) / l2
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return Dist(p, Point{X: a.X + t*abx, Y: a.Y + t*aby})
}

// SegLen returns the Euclidean length of the segment ab.
func SegLen(a, b Point) float64 { return Dist(a, b) }
