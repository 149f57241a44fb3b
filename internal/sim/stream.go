package sim

import (
	"simsub/internal/geo"
	"simsub/internal/traj"
)

// NewStream returns m's computer against q with no stored trajectory, fed
// through Push only: RLS-Skip's state simplification (§5.4) maintains the
// prefix similarity over only the non-skipped points, a point sequence that
// is not a range of any trajectory.
func NewStream(m Measure, q traj.Trajectory) Incremental {
	return m.NewIncremental(traj.Trajectory{}, q)
}

// seq is the bookkeeping every computer in this package shares. Push is a
// computer's primitive; when the computer is fed from a stored trajectory
// t, Init(i) is Reset then Push(t.Pt(i)) and Extend is Push(t.Pt(End()+1)),
// so the two uses are one code path. A stream (NewStream) has no t.
type seq struct {
	t, q  traj.Trajectory
	start int // index in t of the first point consumed since Reset
	n     int // points consumed since Reset
}

// begin resets the sequence to start at t's point i and returns that point.
func (s *seq) begin(i int) geo.Point {
	if s.q.Len() == 0 {
		panic("sim: incremental computer with an empty query")
	}
	s.start, s.n = i, 0
	return s.t.Pt(i)
}

// next returns the point of t that Extend consumes.
func (s *seq) next() geo.Point { return s.t.Pt(s.start + s.n) }

// End implements Incremental.
func (s *seq) End() int { return s.start + s.n - 1 }

// Len implements Incremental.
func (s *seq) Len() int { return s.n }

// Reset implements Incremental.
func (s *seq) Reset() { s.n = 0 }
