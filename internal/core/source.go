package core

import (
	"simsub/internal/geo"
	"simsub/internal/traj"
)

// CandidateSource generates the candidate set a scan iterates: the indices
// of data trajectories worth handing to the per-trajectory search, in scan
// order. The Database's own spatial enumeration (index pruning composed
// with the region filter, see CandidatesFiltered) is the built-in source;
// an approximate source — the engine's embedding index — returns a coarse
// subset instead, and the exact cascade reranks it unchanged: lower bounds,
// early abandoning and the Collector's threshold all operate per candidate,
// so they neither know nor care how the candidate list was produced.
//
// Contract: a source must honor the region filter (never return a
// trajectory whose MBR misses a non-nil filter), must return each index at
// most once, and the returned slice is owned by the caller until the next
// Candidates call. Exactness is NOT part of the contract — a source that
// omits trajectories yields a ranking over the candidates it returned,
// which for an approximate source is the point (prefilter coarsely, rerank
// exactly). Only the nil/spatial source guarantees rankings byte-identical
// to the unpruned scan.
type CandidateSource interface {
	Candidates(q traj.Trajectory, filter *geo.Rect) []int
}

// CandidateSourceFunc adapts a function to a CandidateSource.
type CandidateSourceFunc func(q traj.Trajectory, filter *geo.Rect) []int

// Candidates implements CandidateSource.
func (f CandidateSourceFunc) Candidates(q traj.Trajectory, filter *geo.Rect) []int {
	return f(q, filter)
}

// SpatialSource returns the Database's built-in enumeration — index pruning
// composed with the region filter — as a CandidateSource. It is what every
// scan uses when handed a nil source.
func (db *Database) SpatialSource() CandidateSource {
	return CandidateSourceFunc(db.CandidatesFiltered)
}

// candidatesFrom resolves the scan's candidate list: the source when one is
// supplied, the spatial enumeration otherwise.
func (db *Database) candidatesFrom(src CandidateSource, q traj.Trajectory, filter *geo.Rect) []int {
	if src == nil {
		return db.CandidatesFiltered(q, filter)
	}
	return src.Candidates(q, filter)
}
