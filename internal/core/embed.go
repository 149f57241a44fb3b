package core

import (
	"math"

	"simsub/internal/t2vec"
	"simsub/internal/traj"
)

// EuclidVec is the Euclidean distance between two equal-length vectors;
// +Inf when the lengths differ (an embedding from a different encoder must
// never compare as close).
func EuclidVec(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// EmbedRank is the pure embedding ranking: every data trajectory scores as
// the Euclidean distance between its embedding and the query's, and the
// reported match is always the whole trajectory. It serves algorithm
// "embed" under measure "t2vec" — no DP, no subtrajectory enumeration, O(n)
// encoding per trajectory and O(1) when the scan metadata already carries
// the vector (TrajMeta.Emb, stored by the engine from the same encoder E).
type EmbedRank struct {
	E *t2vec.Model
}

// Name implements Algorithm.
func (EmbedRank) Name() string { return "EmbedRank" }

// Search implements Algorithm: whole-trajectory embedding distance.
func (a EmbedRank) Search(t, q traj.Trajectory) Result {
	r := Result{Dist: math.Inf(1), Explored: 1}
	if t.Len() == 0 {
		return r
	}
	r.Interval = traj.Interval{I: 0, J: t.Len() - 1}
	if a.E == nil {
		return r
	}
	r.Dist = EuclidVec(a.E.Embed(t), a.E.QueryEmbedding(q))
	return r
}

// NewThresholdSearch implements ThresholdSearcher: the query embeds once
// per scan, and candidates whose stored embedding matches the encoder's
// dimensionality skip re-encoding entirely.
func (a EmbedRank) NewThresholdSearch(q traj.Trajectory) ThresholdSearch {
	s := &embedRankSearch{e: a.E}
	if a.E != nil {
		s.qEmb = a.E.QueryEmbedding(q)
	}
	return s
}

type embedRankSearch struct {
	e    *t2vec.Model
	qEmb []float64
}

// Bound implements ThresholdSearch: embedding distances have no cascade.
func (s *embedRankSearch) Bound(traj.Trajectory, TrajMeta, float64) float64 { return 0 }

func (s *embedRankSearch) Search(t traj.Trajectory, meta TrajMeta, tau float64) (Result, bool) {
	r := Result{Dist: math.Inf(1), Explored: 1}
	if t.Len() == 0 {
		return r, true
	}
	r.Interval = traj.Interval{I: 0, J: t.Len() - 1}
	if s.e != nil {
		emb := meta.Emb
		if len(emb) != s.e.Dim() {
			emb = s.e.Embed(t)
		}
		r.Dist = EuclidVec(emb, s.qEmb)
	}
	return within(r, tau)
}

func (s *embedRankSearch) Release() {}
