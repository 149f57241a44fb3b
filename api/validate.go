package api

import (
	"math"

	"simsub/internal/geo"
	"simsub/internal/traj"
)

// This file is the wire boundary's validation layer: every trajectory,
// rectangle and spec coming off the network (or handed to the in-process
// facade) passes through here before it can reach a distance kernel, so
// NaN/Inf coordinates, empty trajectories and malformed pages are rejected
// as CodeInvalidArgument instead of silently poisoning a search.

func finite(f float64) bool {
	return !math.IsNaN(f) && !math.IsInf(f, 0)
}

// ToTraj validates the wire trajectory and converts it: points must be
// [x, y] or [x, y, t], every coordinate must be finite, and the trajectory
// must be non-empty.
func (t Trajectory) ToTraj() (traj.Trajectory, *Error) {
	if len(t.Points) == 0 {
		return traj.Trajectory{}, Errorf(CodeInvalidArgument, "trajectory is empty")
	}
	pts := make([]geo.Point, len(t.Points))
	for i, p := range t.Points {
		switch len(p) {
		case 2:
			pts[i] = geo.Point{X: p[0], Y: p[1], T: float64(i)}
		case 3:
			pts[i] = geo.Point{X: p[0], Y: p[1], T: p[2]}
		default:
			return traj.Trajectory{}, Errorf(CodeInvalidArgument,
				"point %d has %d coordinates, want [x,y] or [x,y,t]", i, len(p))
		}
		if !finite(pts[i].X) || !finite(pts[i].Y) || !finite(pts[i].T) {
			return traj.Trajectory{}, Errorf(CodeInvalidArgument,
				"point %d has a non-finite coordinate", i)
		}
	}
	return traj.Trajectory{Points: pts}, nil
}

// ToTrajs validates and converts a load batch: it must be non-empty, and
// a bad trajectory fails the whole batch under its index.
func ToTrajs(wts []Trajectory) ([]traj.Trajectory, *Error) {
	if len(wts) == 0 {
		return nil, Errorf(CodeInvalidArgument, "no trajectories in request")
	}
	ts := make([]traj.Trajectory, len(wts))
	for i, wt := range wts {
		t, aerr := wt.ToTraj()
		if aerr != nil {
			return nil, Errorf(CodeInvalidArgument, "trajectory %d: %s", i, aerr.Message)
		}
		ts[i] = t
	}
	return ts, nil
}

// Validate checks the filter rectangle: finite and non-empty.
func (r Rect) Validate() *Error {
	if !finite(r.MinX) || !finite(r.MinY) || !finite(r.MaxX) || !finite(r.MaxY) {
		return Errorf(CodeInvalidArgument, "filter has a non-finite coordinate")
	}
	if r.MinX > r.MaxX || r.MinY > r.MaxY {
		return Errorf(CodeInvalidArgument,
			"filter is empty: min (%g, %g) exceeds max (%g, %g)", r.MinX, r.MinY, r.MaxX, r.MaxY)
	}
	return nil
}

// ValidateBound checks the spec's optional k-th-best bound: when present
// it must be finite and non-negative, so a NaN/Inf or negative bound is
// rejected at the wire boundary instead of poisoning the threshold
// pipeline it seeds.
func (s QuerySpec) ValidateBound() *Error {
	if s.Bound == nil {
		return nil
	}
	if b := *s.Bound; !finite(b) || b < 0 {
		return Errorf(CodeInvalidArgument, "bound must be finite and non-negative, got %g", b)
	}
	return nil
}

// ValidateANN checks the spec's optional ANN prefilter knob: the
// candidate budget must be positive and the probe width non-negative
// (0 means "use the default", filled by WithDefaults).
func (s QuerySpec) ValidateANN() *Error {
	if s.ANN == nil {
		return nil
	}
	if s.ANN.Candidates <= 0 {
		return Errorf(CodeInvalidArgument, "ann.candidates must be positive, got %d", s.ANN.Candidates)
	}
	if s.ANN.Probes < 0 {
		return Errorf(CodeInvalidArgument, "ann.probes must be non-negative, got %d", s.ANN.Probes)
	}
	return nil
}

// WithDefaults returns the spec with empty measure/algorithm names filled
// in (DefaultMeasure, DefaultTopKAlgorithm) and, when the ANN prefilter
// is requested, its probe width defaulted (DefaultANNProbes). The ANN
// spec is copied before the default is applied, so the caller's spec is
// never mutated through the shared pointer.
func (s QuerySpec) WithDefaults() QuerySpec {
	if s.Measure == "" {
		s.Measure = DefaultMeasure
	}
	if s.Algorithm == "" {
		s.Algorithm = DefaultTopKAlgorithm
	}
	if s.ANN != nil && s.ANN.Probes == 0 {
		ann := *s.ANN
		ann.Probes = DefaultANNProbes
		s.ANN = &ann
	}
	return s
}

// exactlyOne checks a swap request names its artifact exactly one way.
func exactlyOne(path, b64, b64Field string) *Error {
	if (path == "") == (b64 == "") {
		return Errorf(CodeInvalidArgument, "exactly one of path or %s must be set", b64Field)
	}
	return nil
}

// Validate checks the swap request's shape: one artifact source and a
// non-negative compile resolution.
func (r PolicySwapRequest) Validate() *Error {
	if aerr := exactlyOne(r.Path, r.PolicyB64, "policy_b64"); aerr != nil {
		return aerr
	}
	if r.CompileResolution < 0 {
		return Errorf(CodeInvalidArgument, "compile_resolution must be non-negative, got %d", r.CompileResolution)
	}
	return nil
}

// Validate checks the swap request names exactly one artifact source.
func (r EncoderSwapRequest) Validate() *Error {
	return exactlyOne(r.Path, r.EncoderB64, "encoder_b64")
}
