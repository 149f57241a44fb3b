package core

import (
	"context"
	"slices"

	"simsub/internal/geo"
	"simsub/internal/index"
	"simsub/internal/sim"
	"simsub/internal/traj"
)

// Backend supplies a Database's trajectories and their precomputed scan
// metadata (TrajMeta: point count, MBR). The in-memory default is built by
// the NewDatabase* constructors; persistent backends (package
// internal/storage) serve mmap'd on-disk points and snapshot-restored
// metadata through the same interface, so the zero-allocation scan path is
// oblivious to where the points live. Backends must be immutable once a
// Database is built over them, and Traj/Meta must be safe for concurrent
// use.
type Backend interface {
	// Len returns the number of trajectories.
	Len() int
	// Traj returns the i-th trajectory. The points may be backed by an
	// mmap'd file and must be treated as read-only.
	Traj(i int) traj.Trajectory
	// Meta returns the i-th trajectory's precomputed scan metadata.
	Meta(i int) TrajMeta
}

// memBackend is the in-memory default Backend: trajectories plus metadata
// derived once at construction.
type memBackend struct {
	trajs []traj.Trajectory
	metas []TrajMeta
}

func (b *memBackend) Len() int                   { return len(b.trajs) }
func (b *memBackend) Traj(i int) traj.Trajectory { return b.trajs[i] }
func (b *memBackend) Meta(i int) TrajMeta        { return b.metas[i] }

// NewMemBackend builds the in-memory Backend: per-trajectory point counts
// and MBRs are derived once, here, so the scan hot path never re-derives
// them. When metas is non-nil it must be parallel to ts and is adopted
// as-is (the caller — a persistent store restoring a snapshot — already
// owns the derivation).
func NewMemBackend(ts []traj.Trajectory, metas []TrajMeta) Backend {
	if metas == nil {
		metas = make([]TrajMeta, len(ts))
		for i, t := range ts {
			metas[i] = DeriveMeta(t)
		}
	}
	return &memBackend{trajs: ts, metas: metas}
}

// DeriveMeta computes a trajectory's scan metadata from scratch: the
// insert-time derivation the snapshot path exists to skip.
func DeriveMeta(t traj.Trajectory) TrajMeta {
	return TrajMeta{N: t.Len(), MBR: t.MBR()}
}

// Database is a collection of data trajectories with an optional MBR R-tree
// for pruning (§6.2(4)): a query first discards every trajectory whose MBR
// does not intersect the query's MBR. The paper notes this pruning can in
// principle drop the true best subtrajectory but rarely does in practice
// (and never did for DTW/Fréchet in its experiments).
//
// The trajectories live behind a pluggable Backend: in-memory by default,
// or a persistent segment store serving mmap'd points.
//
// A Database is immutable: Append returns a new view and leaves the
// receiver answering as it did. The R-tree is kept as a forest so that
// growing costs what was added, not what is stored (see Append).
type Database struct {
	be        Backend
	withIndex bool
	// parts is the R-tree forest: STR-packed trees over contiguous,
	// ascending ranges of local indices that together cover [0, be.Len()),
	// each more than twice the size of the next. Trees are never modified
	// once built, so successive views share them.
	parts []treePart
	// packed counts the entries bulk-loaded over this view's whole lineage
	// of Appends: the clock-free measure of index maintenance work.
	packed int
}

// treePart is one tree of the forest, over local indices [lo, hi).
type treePart struct {
	lo, hi int
	tree   *index.RTree
}

// rtreeFill is the fan-out of every tree in the forest.
const rtreeFill = 32

// NewDatabase builds a database over the in-memory backend (insert-time
// metadata derived here, once); withIndex controls whether the R-tree is
// constructed (bulk-loaded, fan-out 32).
func NewDatabase(ts []traj.Trajectory, withIndex bool) *Database {
	return NewDatabaseBackend(NewMemBackend(ts, nil), withIndex)
}

// NewDatabaseBackend builds a database over an externally owned Backend —
// the pluggable-storage entry point. The backend's metadata feeds the index
// build and the filter pushdown, so a backend restoring snapshot metadata
// pays no per-point derivation here.
func NewDatabaseBackend(be Backend, withIndex bool) *Database {
	empty := &Database{be: &memBackend{}, withIndex: withIndex}
	return empty.Append(be)
}

// Append returns the view of the database grown to be, which must extend
// the receiver's backend: the same trajectories and metadata at every index
// below db.Len(), the new ones behind them. The receiver is not modified
// and shares its sealed trees with the result.
//
// For the R-tree this is the logarithmic method (Bentley & Saxe): the new
// trajectories get a tree of their own, and while the youngest existing
// tree is no more than twice the size of what is about to be packed it is
// absorbed into the same bulk load (rectangles read back from be.Meta). An
// entry is therefore re-packed only when its tree grows by half or more, so
// N trajectories arriving in batches of b cost O(N log(N/b)) packing work in
// at most ⌈log₂(N/b)⌉+1 trees, where rebuilding one tree per batch costs
// O(N²/b). Without an index there is nothing to maintain.
func (db *Database) Append(be Backend) *Database {
	next := &Database{be: be, withIndex: db.withIndex, parts: db.parts, packed: db.packed}
	if !db.withIndex || be.Len() == db.Len() {
		return next
	}
	lo, keep := db.Len(), len(db.parts)
	for keep > 0 && db.parts[keep-1].hi-db.parts[keep-1].lo <= 2*(be.Len()-lo) {
		keep--
		lo = db.parts[keep].lo
	}
	entries := make([]index.Entry, be.Len()-lo)
	for i := range entries {
		entries[i] = index.Entry{Rect: be.Meta(lo + i).MBR, Ref: lo + i}
	}
	next.parts = append(slices.Clip(db.parts[:keep]), treePart{lo, be.Len(), index.BulkLoad(entries, rtreeFill)})
	next.packed += len(entries)
	return next
}

// Len returns the number of data trajectories.
func (db *Database) Len() int { return db.be.Len() }

// Traj returns the i-th data trajectory.
func (db *Database) Traj(i int) traj.Trajectory { return db.be.Traj(i) }

// Meta returns the i-th trajectory's precomputed scan metadata.
func (db *Database) Meta(i int) TrajMeta { return db.be.Meta(i) }

// HasIndex reports whether the database prunes through an index.
func (db *Database) HasIndex() bool { return db.withIndex }

// Candidates returns the indices of trajectories surviving index pruning
// for the query: with the R-tree, exactly those whose MBR intersects the
// query's MBR (possibly none); without it, all indices. It is a set: the
// order is unspecified — for the R-tree it is the concatenation of the
// forest's searches — and nothing downstream depends on it, since the
// threshold scan visits candidates by (bound, index) and the Collector's
// ranking is a total order.
func (db *Database) Candidates(q traj.Trajectory) []int {
	if !db.withIndex {
		out := make([]int, db.be.Len())
		for i := range out {
			out[i] = i
		}
		return out
	}
	var out []int
	r := q.MBR()
	for _, p := range db.parts {
		out = p.tree.Search(r, out)
	}
	return out
}

// CandidatesFiltered returns Candidates(q) restricted to trajectories
// whose MBR intersects filter; a nil filter means no restriction. This is
// the pushdown target for a query's spatial constraint: the similarity
// pruning and the region constraint compose into one candidate set before
// any distance is computed.
func (db *Database) CandidatesFiltered(q traj.Trajectory, filter *geo.Rect) []int {
	cands := db.Candidates(q)
	if filter == nil {
		return cands
	}
	out := cands[:0]
	for _, ci := range cands {
		if db.be.Meta(ci).MBR.Intersects(*filter) {
			out = append(out, ci)
		}
	}
	return out
}

// Match is one ranked answer of a top-k query.
type Match struct {
	// TrajIndex is the position of the data trajectory in the database.
	TrajIndex int
	// Result locates the subtrajectory within that trajectory.
	Result Result
}

// RankBefore is the canonical total order of top-k answers: ascending
// distance, with deterministic tie-breaking by trajectory identifier and
// interval so that serial, parallel and sharded searches agree on
// equal-distance matches. Every ranking in this package, the engine and the
// router must use it.
func RankBefore(d1 float64, id1 int, iv1 traj.Interval, d2 float64, id2 int, iv2 traj.Interval) bool {
	if d1 != d2 {
		return d1 < d2
	}
	if id1 != id2 {
		return id1 < id2
	}
	if iv1.I != iv2.I {
		return iv1.I < iv2.I
	}
	return iv1.J < iv2.J
}

func matchLess(a, b Match) bool {
	return RankBefore(a.Result.Dist, a.TrajIndex, a.Result.Interval,
		b.Result.Dist, b.TrajIndex, b.Result.Interval)
}

// TopK runs the algorithm over every candidate trajectory and returns the k
// best matches ordered by ascending distance. With the index enabled,
// candidates are limited to MBR-intersecting trajectories.
func (db *Database) TopK(alg Algorithm, q traj.Trajectory, k int) []Match {
	out, _ := db.TopKPrunedCtx(context.Background(), alg, q, k, nil, nil, nil)
	return out
}

// ScanFilteredCtx runs the algorithm over every index-pruned (and, with a
// non-nil filter, region-restricted) candidate with no threshold pipeline
// at all, invoking fn with each per-trajectory match in candidate order on
// the calling goroutine. An fn error aborts the scan and is returned. It is
// the unpruned reference the equivalence suites rank ScanPrunedSourceCtx
// against.
func (db *Database) ScanFilteredCtx(ctx context.Context, alg Algorithm, q traj.Trajectory, filter *geo.Rect, fn func(Match) error) error {
	for _, ci := range db.CandidatesFiltered(q, filter) {
		if err := ctx.Err(); err != nil {
			return err
		}
		t := db.be.Traj(ci)
		if t.Len() == 0 {
			continue
		}
		if err := fn(Match{TrajIndex: ci, Result: alg.Search(t, q)}); err != nil {
			return err
		}
	}
	return nil
}

// Best returns the single best match (TopK with k = 1); ok is false when
// the database holds no candidates.
func (db *Database) Best(alg Algorithm, q traj.Trajectory) (Match, bool) {
	top := db.TopK(alg, q, 1)
	if len(top) == 0 {
		return Match{}, false
	}
	return top[0], true
}

// AlgorithmFor builds the named algorithm over a measure with reasonable
// defaults. Names: exacts, sizes, pss, pos, pos-d, spring, ucr, random-s,
// simtra. RLS variants require a policy and are constructed directly.
func AlgorithmFor(name string, m sim.Measure) (Algorithm, bool) {
	switch name {
	case "exacts":
		return ExactS{M: m}, true
	case "sizes":
		return SizeS{M: m, Xi: 5}, true
	case "pss":
		return PSS{M: m}, true
	case "pos":
		return POS{M: m}, true
	case "pos-d", "posd":
		return POSD{M: m, D: 5}, true
	case "spring":
		return Spring{}, true
	case "ucr":
		return UCR{Band: 1}, true
	case "random-s", "randoms":
		return RandomS{M: m, Samples: 50}, true
	case "simtra":
		return SimTra{M: m}, true
	}
	return nil, false
}
