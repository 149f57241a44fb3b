package core

import (
	"context"
	"slices"

	"simsub/internal/geo"
	"simsub/internal/index"
	"simsub/internal/sim"
	"simsub/internal/traj"
)

// DeriveMeta computes a trajectory's scan metadata at insert time: its
// point count and MBR, with no embedding.
func DeriveMeta(t traj.Trajectory) TrajMeta {
	return TrajMeta{N: t.Len(), MBR: t.MBR()}
}

// Database is a collection of data trajectories with an optional MBR R-tree
// for pruning (§6.2(4)): a query first discards every trajectory whose MBR
// does not intersect the query's MBR. The paper notes this pruning can in
// principle drop the true best subtrajectory but rarely does in practice
// (and never did for DTW/Fréchet in its experiments).
//
// A Database is immutable: Append returns a new view and leaves the
// receiver answering as it did. The R-tree is kept as a forest so that
// growing costs what was added, not what is stored (see Append).
type Database struct {
	trajs     []traj.Trajectory
	metas     []TrajMeta // parallel to trajs
	withIndex bool
	// parts is the R-tree forest: STR-packed trees over contiguous,
	// ascending ranges of local indices that together cover [0, Len()),
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

// NewDatabase builds a database over ts, deriving each trajectory's scan
// metadata here, once; withIndex controls whether the R-tree is
// constructed (bulk-loaded, fan-out 32).
func NewDatabase(ts []traj.Trajectory, withIndex bool) *Database {
	metas := make([]TrajMeta, len(ts))
	for i, t := range ts {
		metas[i] = DeriveMeta(t)
	}
	return (&Database{withIndex: withIndex}).Append(ts, metas)
}

// Append returns the view of the database grown to (ts, metas): parallel
// slices that extend the receiver's, holding the same trajectories at
// every index below db.Len() and the new ones behind them. Metadata below
// db.Len() may differ in its embeddings only. The view adopts both slices,
// which must not be modified below their length afterwards; appending
// behind them is safe (see Contents), since no view reads past its own
// length. The receiver is not modified and shares its sealed trees with
// the result.
//
// For the R-tree this is the logarithmic method (Bentley & Saxe): the new
// trajectories get a tree of their own, and while the youngest existing
// tree is no more than twice the size of what is about to be packed it is
// absorbed into the same bulk load (rectangles read back from metas). An
// entry is therefore re-packed only when its tree grows by half or more, so
// N trajectories arriving in batches of b cost O(N log(N/b)) packing work in
// at most ⌈log₂(N/b)⌉+1 trees, where rebuilding one tree per batch costs
// O(N²/b). Without an index there is nothing to maintain.
func (db *Database) Append(ts []traj.Trajectory, metas []TrajMeta) *Database {
	next := &Database{trajs: ts, metas: metas, withIndex: db.withIndex, parts: db.parts, packed: db.packed}
	if !db.withIndex || len(ts) == db.Len() {
		return next
	}
	lo, keep := db.Len(), len(db.parts)
	for keep > 0 && db.parts[keep-1].hi-db.parts[keep-1].lo <= 2*(len(ts)-lo) {
		keep--
		lo = db.parts[keep].lo
	}
	entries := make([]index.Entry, len(ts)-lo)
	for i := range entries {
		entries[i] = index.Entry{Rect: metas[lo+i].MBR, Ref: lo + i}
	}
	next.parts = append(slices.Clip(db.parts[:keep]), treePart{lo, len(ts), index.BulkLoad(entries, rtreeFill)})
	next.packed += len(entries)
	return next
}

// Len returns the number of data trajectories.
func (db *Database) Len() int { return len(db.trajs) }

// Traj returns the i-th data trajectory.
func (db *Database) Traj(i int) traj.Trajectory { return db.trajs[i] }

// Meta returns the i-th trajectory's precomputed scan metadata.
func (db *Database) Meta(i int) TrajMeta { return db.metas[i] }

// Contents returns the view's trajectories and their parallel metadata:
// the slices it adopted, shared and read-only. Appending behind them builds
// the arguments of a grown view's Append; since the next Append may write
// into the same arrays, only the newest view's contents may be grown.
func (db *Database) Contents() ([]traj.Trajectory, []TrajMeta) { return db.trajs, db.metas }

// Candidates returns the indices of trajectories surviving index pruning
// for the query — with the R-tree, exactly those whose MBR intersects the
// query's MBR (possibly none); without it, all indices — restricted to
// those whose MBR intersects filter; a nil filter means no restriction.
// The filter is the pushdown target for a query's spatial constraint: the
// similarity pruning and the region constraint compose into one candidate
// set before any distance is computed. It is a set: the order is
// unspecified — for the R-tree it is the concatenation of the forest's
// searches — and nothing downstream depends on it, since the threshold
// scan visits candidates by (bound, index) and the Collector's ranking is
// a total order.
func (db *Database) Candidates(q traj.Trajectory, filter *geo.Rect) []int {
	var out []int
	if !db.withIndex {
		out = make([]int, db.Len())
		for i := range out {
			out[i] = i
		}
	} else {
		r := q.MBR()
		for _, p := range db.parts {
			out = p.tree.Search(r, out)
		}
	}
	return db.within(out, filter)
}

// within compacts cands in place to the trajectories whose MBR intersects
// a non-nil filter: the one place a region filter meets a candidate list.
func (db *Database) within(cands []int, filter *geo.Rect) []int {
	if filter == nil {
		return cands
	}
	out := cands[:0]
	for _, ci := range cands {
		if db.metas[ci].MBR.Intersects(*filter) {
			out = append(out, ci)
		}
	}
	return out
}

// candidates resolves a scan's candidate list: cands restricted to the
// filter, or Candidates(q, filter) when cands is nil. An empty non-nil
// list scans nothing.
func (db *Database) candidates(q traj.Trajectory, filter *geo.Rect, cands []int) []int {
	if cands == nil {
		return db.Candidates(q, filter)
	}
	return db.within(cands, filter)
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
	for _, ci := range db.Candidates(q, filter) {
		if err := ctx.Err(); err != nil {
			return err
		}
		t := db.trajs[ci]
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

// AlgorithmFor builds the named measure-agnostic search over a measure
// with reasonable defaults. Names: exacts, sizes, pss, pos, pos-d. RLS
// variants require a policy and are constructed directly, as are the
// competitors (Spring, UCR, RandomS, SimTra), which only the experiments
// run.
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
	}
	return nil, false
}
