// Package traj provides the trajectory substrate: the Trajectory type,
// subtrajectory views, reversal, resampling, normalization and input/output.
//
// A trajectory is an ordered sequence of timestamped points. Subtrajectories
// are half-open-free inclusive index ranges T[i,j] (1-based in the paper,
// 0-based here) and are represented as cheap slice views over the parent.
package traj

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"simsub/internal/geo"
)

// Trajectory is a sequence of timestamped points. The zero value is an empty
// trajectory. Trajectories share underlying storage with their
// subtrajectories; treat point data as immutable once a trajectory is built.
type Trajectory struct {
	// ID identifies the trajectory within a database; 0 when standalone.
	ID int
	// Points is the ordered point sequence.
	Points []geo.Point
}

// New builds a trajectory from points with ID 0.
func New(pts ...geo.Point) Trajectory {
	return Trajectory{Points: pts}
}

// FromXY builds a trajectory from alternating x,y coordinates with unit
// time spacing. It panics if len(xy) is odd. Intended for tests and examples.
func FromXY(xy ...float64) Trajectory {
	if len(xy)%2 != 0 {
		panic("traj.FromXY: odd number of coordinates")
	}
	pts := make([]geo.Point, 0, len(xy)/2)
	for i := 0; i < len(xy); i += 2 {
		pts = append(pts, geo.Point{X: xy[i], Y: xy[i+1], T: float64(i / 2)})
	}
	return Trajectory{Points: pts}
}

// Len returns the number of points (|T| in the paper).
func (t Trajectory) Len() int { return len(t.Points) }

// Empty reports whether the trajectory has no points.
func (t Trajectory) Empty() bool { return len(t.Points) == 0 }

// Pt returns the i-th point (0-based).
func (t Trajectory) Pt(i int) geo.Point { return t.Points[i] }

// Sub returns the subtrajectory T[i,j] (0-based, inclusive on both ends) as a
// view sharing storage with t. It panics when the range is invalid.
func (t Trajectory) Sub(i, j int) Trajectory {
	if i < 0 || j >= len(t.Points) || i > j {
		panic(fmt.Sprintf("traj.Sub: invalid range [%d,%d] for length %d", i, j, len(t.Points)))
	}
	return Trajectory{ID: t.ID, Points: t.Points[i : j+1]}
}

// Reverse returns a new trajectory with the points in reverse order.
// The paper uses reversed trajectories (T^R, Tq^R) for incremental suffix
// similarity computation in PSS and the RLS state Θsuf.
func (t Trajectory) Reverse() Trajectory {
	pts := make([]geo.Point, len(t.Points))
	for i, p := range t.Points {
		pts[len(pts)-1-i] = p
	}
	return Trajectory{ID: t.ID, Points: pts}
}

// Clone returns a deep copy of t.
func (t Trajectory) Clone() Trajectory {
	pts := make([]geo.Point, len(t.Points))
	copy(pts, t.Points)
	return Trajectory{ID: t.ID, Points: pts}
}

// MBR returns the minimum bounding rectangle of the trajectory.
func (t Trajectory) MBR() geo.Rect { return geo.MBR(t.Points) }

// Length returns the travelled Euclidean length (sum of segment lengths).
func (t Trajectory) Length() float64 {
	var s float64
	for i := 1; i < len(t.Points); i++ {
		s += geo.Dist(t.Points[i-1], t.Points[i])
	}
	return s
}

// Duration returns the elapsed time from first to last point.
func (t Trajectory) Duration() float64 {
	if len(t.Points) < 2 {
		return 0
	}
	return t.Points[len(t.Points)-1].T - t.Points[0].T
}

// NumSubtrajectories returns n(n+1)/2, the number of distinct contiguous
// subtrajectories of a length-n trajectory (paper §3).
func (t Trajectory) NumSubtrajectories() int {
	n := len(t.Points)
	return n * (n + 1) / 2
}

// Interval is an inclusive index range [I,J] identifying the subtrajectory
// T[I,J] of some trajectory T.
type Interval struct {
	I, J int
}

// Valid reports whether the interval is a valid subtrajectory range for a
// trajectory of length n.
func (iv Interval) Valid(n int) bool { return iv.I >= 0 && iv.I <= iv.J && iv.J < n }

// Len returns the number of points in the subtrajectory.
func (iv Interval) Len() int { return iv.J - iv.I + 1 }

// String implements fmt.Stringer.
func (iv Interval) String() string { return fmt.Sprintf("[%d,%d]", iv.I, iv.J) }

// Translate returns a copy of t shifted by (dx, dy).
func (t Trajectory) Translate(dx, dy float64) Trajectory {
	out := t.Clone()
	for i := range out.Points {
		out.Points[i].X += dx
		out.Points[i].Y += dy
	}
	return out
}

// Scale returns a copy of t with coordinates multiplied by s (about origin).
func (t Trajectory) Scale(s float64) Trajectory {
	out := t.Clone()
	for i := range out.Points {
		out.Points[i].X *= s
		out.Points[i].Y *= s
	}
	return out
}

// Normalize maps the trajectory into the unit square given the dataset
// bounding rectangle. Degenerate (zero-extent) axes map to 0.5.
func (t Trajectory) Normalize(bounds geo.Rect) Trajectory {
	out := t.Clone()
	w := bounds.MaxX - bounds.MinX
	h := bounds.MaxY - bounds.MinY
	for i := range out.Points {
		if w > 0 {
			out.Points[i].X = (out.Points[i].X - bounds.MinX) / w
		} else {
			out.Points[i].X = 0.5
		}
		if h > 0 {
			out.Points[i].Y = (out.Points[i].Y - bounds.MinY) / h
		} else {
			out.Points[i].Y = 0.5
		}
	}
	return out
}

// Resample returns a trajectory with exactly k points, linearly interpolated
// along the original polyline by arc length. k must be >= 2 unless the
// trajectory has fewer than 2 points, in which case t is cloned.
func (t Trajectory) Resample(k int) Trajectory {
	n := len(t.Points)
	if n == 0 || k <= 0 {
		return Trajectory{ID: t.ID}
	}
	if n == 1 || k == 1 {
		return Trajectory{ID: t.ID, Points: []geo.Point{t.Points[0]}}
	}
	total := t.Length()
	out := make([]geo.Point, 0, k)
	if total == 0 {
		for i := 0; i < k; i++ {
			out = append(out, t.Points[0])
		}
		return Trajectory{ID: t.ID, Points: out}
	}
	// cumulative arc lengths
	cum := make([]float64, n)
	for i := 1; i < n; i++ {
		cum[i] = cum[i-1] + geo.Dist(t.Points[i-1], t.Points[i])
	}
	seg := 0
	for i := 0; i < k; i++ {
		target := total * float64(i) / float64(k-1)
		for seg < n-2 && cum[seg+1] < target {
			seg++
		}
		span := cum[seg+1] - cum[seg]
		var frac float64
		if span > 0 {
			frac = (target - cum[seg]) / span
		}
		out = append(out, geo.Lerp(t.Points[seg], t.Points[seg+1], frac))
	}
	return Trajectory{ID: t.ID, Points: out}
}

// Equal reports whether two trajectories have identical point sequences
// (coordinates and timestamps), ignoring IDs.
func (t Trajectory) Equal(u Trajectory) bool {
	if len(t.Points) != len(u.Points) {
		return false
	}
	for i := range t.Points {
		if t.Points[i] != u.Points[i] {
			return false
		}
	}
	return true
}

// Digest fingerprints the trajectory's content: FNV-1a over the raw bits
// of every point's coordinates and timestamp, IDs ignored. It keys the
// engine's result cache and places trajectories on the router's ring, so
// changing it moves stored trajectories between replica groups. FNV
// collisions are constructible; callers that must not confuse two
// trajectories confirm a digest match with Equal.
func (t Trajectory) Digest() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, p := range t.Points {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(p.X))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(p.Y))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(p.T))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// ApproxEqual reports whether two trajectories match point-wise within eps
// in space (timestamps ignored).
func (t Trajectory) ApproxEqual(u Trajectory, eps float64) bool {
	if len(t.Points) != len(u.Points) {
		return false
	}
	for i := range t.Points {
		if math.Abs(t.Points[i].X-u.Points[i].X) > eps ||
			math.Abs(t.Points[i].Y-u.Points[i].Y) > eps {
			return false
		}
	}
	return true
}

// String implements fmt.Stringer with a compact preview.
func (t Trajectory) String() string {
	if len(t.Points) <= 4 {
		return fmt.Sprintf("Traj#%d%v", t.ID, t.Points)
	}
	return fmt.Sprintf("Traj#%d[%d pts %v..%v]", t.ID, len(t.Points), t.Points[0], t.Points[len(t.Points)-1])
}
