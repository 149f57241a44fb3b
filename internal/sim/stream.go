package sim

import (
	"simsub/internal/geo"
	"simsub/internal/traj"
)

// Stream computes the distance between a growing point sequence and a fixed
// query, one pushed point at a time. It generalizes Incremental to point
// sequences that are not contiguous ranges of a stored trajectory — the
// state-simplification of RLS-Skip (§5.4) maintains the prefix similarity
// over only the non-skipped points, which is exactly a Stream.
//
// The first Push starts the sequence (cost Φini); each later Push costs
// Φinc for measures with native streaming support.
type Stream interface {
	// Push appends p to the sequence and returns the distance between the
	// sequence so far and the query.
	Push(p geo.Point) float64
	// Len returns the number of points pushed.
	Len() int
	// Reset empties the sequence so the stream can be reused.
	Reset()
}

// StreamMeasure is implemented by measures with native O(Φinc) streaming.
type StreamMeasure interface {
	Measure
	// NewStream returns a fresh stream against q.
	NewStream(q traj.Trajectory) Stream
}

// NewStream returns a streaming computer for m against q: the measure's
// native stream when it implements StreamMeasure, otherwise a buffering
// fallback that recomputes from scratch on every Push (cost Φ per Push).
func NewStream(m Measure, q traj.Trajectory) Stream {
	if sm, ok := m.(StreamMeasure); ok {
		return sm.NewStream(q)
	}
	return &bufferStream{seq: seq{q: q}, m: m}
}

// seq is the bookkeeping every computer in this package shares. Push is a
// computer's primitive; when the computer is fed from a stored trajectory
// t, Init(i) is Reset then Push(t.Pt(i)) and Extend is Push(t.Pt(End()+1)),
// so the two interfaces are one code path. A stream has no t.
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

// Len implements Stream.
func (s *seq) Len() int { return s.n }

// Reset implements Stream.
func (s *seq) Reset() { s.n = 0 }

// bufferStream accumulates points and calls Dist from scratch: the
// fallback for measures defined outside this package, and CDTW's computer,
// whose Sakoe-Chiba band is laid along the final subtrajectory's own
// diagonal, so no row of an earlier prefix can be extended (cost Φ per
// Push either way). CDTW is only used by the UCR/Spring comparison
// (Figures 8 and 13), which scores fixed-length windows from scratch and
// never relies on this computer being cheap.
type bufferStream struct {
	seq
	m   Measure
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
