package core

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"simsub/internal/geo"
	"simsub/internal/sim"
	"simsub/internal/traj"
)

// This file is the best-so-far threshold pipeline: the running k-th-best
// distance of a top-k scan flows down into each per-trajectory search,
// where it prunes at four levels —
//
//	candidate  the measure's lower-bound cascade (sim.SubtrajLowerBounder)
//	           drops a trajectory before any DP runs, and orders the rest
//	           best-first;
//	gate       sim.FreeStartMeasure finds a trajectory's exact best
//	           distance in one O(n·m) pass and drops it, or hands the
//	           enumeration that distance as its threshold (ExactS);
//	kernel     sim.ThresholdIncremental abandons a DP scan once no
//	           extension can beat the threshold;
//	result     a completed search whose best distance exceeds the
//	           threshold is suppressed instead of offered.
//
// Correctness invariant (see DESIGN.md): pruning only ever uses STRICT
// comparisons against provable lower bounds of what the unpruned search
// would report. The running k-th-best distance never increases, so a
// candidate pruned against a stale (larger) threshold is pruned a
// fortiori, and equal-distance candidates — which deterministic
// tie-breaking may rank into the top-k — are never pruned. Rankings are
// therefore byte-identical to the unpruned scan. Threshold-aware exact
// searches report Explored as the logical candidate count of the unpruned
// enumeration (a deterministic value); the physical work saved is exposed
// through PruneStats instead.

// TrajMeta is per-trajectory metadata precomputed at insert time and handed
// to threshold-aware searches, so the scan hot path neither re-derives MBRs
// nor re-allocates reversals.
type TrajMeta struct {
	// N is the trajectory's point count.
	N int
	// MBR is the trajectory's minimum bounding rectangle.
	MBR geo.Rect
	// Rev is the reversed trajectory (suffix-state scans run over it).
	Rev traj.Trajectory
	// Emb is the trajectory's embedding under the engine's registered
	// encoder, or nil/empty when no encoder is registered. Its length must
	// equal the encoder's Dim; consumers treat a mismatched length as
	// "not embedded" (a stale vector from a swapped-out encoder must never
	// be compared).
	Emb []float64
}

// Thresholder yields a scan's current best-so-far bound: the running
// k-th-best distance, +Inf until k matches have been retained. It must be
// safe for concurrent use.
type Thresholder interface {
	Threshold() float64
}

// NoThreshold is the Thresholder that never prunes.
var NoThreshold Thresholder = infThresholder{}

type infThresholder struct{}

func (infThresholder) Threshold() float64 { return math.Inf(1) }

// PruneStats counts the pruning outcomes of one scan. Candidates is every
// non-empty trajectory considered after index/filter pruning; each is
// either LB-skipped (lower-bound cascade, no DP), abandoned (DP started but
// nothing beat the threshold), or scored (a match reached the heap offer).
type PruneStats struct {
	Candidates int64
	LBSkipped  int64
	Abandoned  int64
	Scored     int64
}

// Add accumulates o into s.
func (s *PruneStats) Add(o PruneStats) {
	s.Candidates += o.Candidates
	s.LBSkipped += o.LBSkipped
	s.Abandoned += o.Abandoned
	s.Scored += o.Scored
}

// Pruned reports how a threshold-aware search disposed of a candidate.
type Pruned uint8

// Candidate outcomes of ThresholdSearch.Search.
const (
	// NotPruned: the search completed and its Result is the exact answer
	// the unpruned Search would have returned.
	NotPruned Pruned = iota
	// PrunedAbandon: the search ran but everything it could report has
	// distance strictly greater than tau; the Result is meaningless.
	PrunedAbandon
)

// ThresholdSearcher is an Algorithm that can exploit a best-so-far
// threshold. NewThresholdSearch returns per-query search state — the
// measure's lower-bound cascade, the reversed query, pooled scratch —
// reused across every candidate of a scan. The returned ThresholdSearch is
// single-goroutine; concurrent scans create one per worker.
type ThresholdSearcher interface {
	Algorithm
	NewThresholdSearch(q traj.Trajectory) ThresholdSearch
}

// ThresholdSearch is the per-query form of a threshold-aware search. A scan
// asks Bound first and calls Search only for candidates whose bound does
// not strictly exceed the threshold.
type ThresholdSearch interface {
	// Bound is the candidate-level lower-bound cascade: a value no greater
	// than the distance of anything Search could report for t, so a
	// candidate whose bound strictly exceeds the scan's threshold is
	// skipped before any DP runs. The cascade stops refining once the
	// bound exceeds tau. Searches that cannot bound their answer return 0.
	// meta must describe t (Database.Meta).
	Bound(t traj.Trajectory, meta TrajMeta, tau float64) float64
	// Search is Algorithm.Search with pruning against tau. When the
	// returned outcome is NotPruned, Result is byte-identical (interval
	// and distance; Explored is the deterministic logical count) to the
	// unpruned Search. Otherwise every subtrajectory the unpruned search
	// could have reported has distance strictly greater than tau and the
	// Result must be discarded.
	Search(t traj.Trajectory, meta TrajMeta, tau float64) (Result, Pruned)
	// Release returns pooled scratch; the search is unusable afterwards.
	Release()
}

// cascade is the measure's per-query lower-bound cascade, embedded by the
// threshold searches it is sound for; lb is nil when the measure has none
// or the search cannot use it.
type cascade struct {
	lb sim.SubtrajLB
}

// cascadeFor builds the measure's cascade when it has one.
func cascadeFor(m sim.Measure, q traj.Trajectory) cascade {
	if b, ok := m.(sim.SubtrajLowerBounder); ok {
		return cascade{lb: b.NewSubtrajLB(q)}
	}
	return cascade{}
}

// Bound implements ThresholdSearch.
func (c cascade) Bound(t traj.Trajectory, meta TrajMeta, tau float64) float64 {
	if c.lb == nil {
		return 0
	}
	mbr := meta.MBR
	if meta.N != t.Len() {
		// defensive: zero-value meta falls back to a fresh MBR
		mbr = t.MBR()
	}
	return c.lb.LowerBound(t, mbr, tau)
}

// prunes reports whether the cascade proves every subtrajectory of t is
// strictly farther than tau.
func (c cascade) prunes(t traj.Trajectory, meta TrajMeta, tau float64) bool {
	return !math.IsInf(tau, 1) && c.Bound(t, meta, tau) > tau
}

// exactThresholdSearch implements ThresholdSearch for ExactS: the full
// enumeration with early-abandoning inner scans, behind the free-start gate
// when the measure has one. Per start index i, abandoning skips only
// evaluations the kernel proved strictly worse than min(local best, tau),
// so the first minimizer — interval tie-breaking included — is exactly the
// unpruned one whenever the trajectory's true best is within tau.
//
// The gate (sim.FreeStartMeasure) computes the trajectory's exact best
// distance d* in one O(n·m) pass. Beyond tau, the candidate is dropped with
// no enumeration at all; otherwise the enumeration runs against d* instead
// of tau. Nothing it reports changes: d* carries the very bits the
// enumeration's minimum does, comparisons stay strict, so the row holding
// the lexicographically first interval at distance d* is never abandoned
// before reaching it, while nearly every other start row is after one or
// two extensions.
type exactThresholdSearch struct {
	cascade
	m    sim.Measure
	gate sim.FreeStartMeasure // nil: enumerate against tau alone
	q    traj.Trajectory
}

// NewThresholdSearch implements ThresholdSearcher.
func (a ExactS) NewThresholdSearch(q traj.Trajectory) ThresholdSearch {
	gate, _ := a.M.(sim.FreeStartMeasure)
	return &exactThresholdSearch{cascade: cascadeFor(a.M, q), m: a.M, gate: gate, q: q}
}

func (s *exactThresholdSearch) Search(t traj.Trajectory, meta TrajMeta, tau float64) (Result, Pruned) {
	// the enumeration ends at the first interval as good as stop: never
	// without the gate, and behind it at the minimum itself — the first
	// interval to reach it is the answer, nothing later is strictly smaller
	stop := math.Inf(-1)
	if s.gate != nil {
		d, abandoned := s.gate.MinSubDist(t, s.q, tau)
		if abandoned {
			return Result{}, PrunedAbandon
		}
		tau, stop = d, d
	}
	n := t.Len()
	best := Result{Dist: math.Inf(1)}
	inc := s.m.NewIncremental(t, s.q)
	defer sim.Release(inc)
	tinc, _ := inc.(sim.ThresholdIncremental)
	for i := 0; i < n && best.Dist > stop; i++ {
		d := inc.Init(i)
		if d < best.Dist {
			best.Dist = d
			best.Interval = traj.Interval{I: i, J: i}
		}
		bsf := math.Min(best.Dist, tau)
		for j := i + 1; j < n && best.Dist > stop; j++ {
			if tinc != nil {
				var abandoned bool
				d, abandoned = tinc.ExtendAbandoning(bsf)
				if abandoned {
					break
				}
			} else {
				d = inc.Extend()
			}
			if d < best.Dist {
				best.Dist = d
				best.Interval = traj.Interval{I: i, J: j}
				bsf = math.Min(best.Dist, tau)
			}
		}
	}
	// the logical candidate count, not the evaluations performed — see the
	// determinism note in the file comment
	best.Explored = n * (n + 1) / 2
	if best.Dist > tau {
		return best, PrunedAbandon
	}
	return best, NotPruned
}

func (s *exactThresholdSearch) Release() {}

// sizeThresholdSearch is exactThresholdSearch restricted to SizeS's
// [m-ξ, m+ξ] length window.
type sizeThresholdSearch struct {
	cascade
	m  sim.Measure
	xi int
	q  traj.Trajectory
}

// NewThresholdSearch implements ThresholdSearcher.
func (a SizeS) NewThresholdSearch(q traj.Trajectory) ThresholdSearch {
	return &sizeThresholdSearch{cascade: cascadeFor(a.M, q), m: a.M, xi: a.Xi, q: q}
}

func (s *sizeThresholdSearch) Search(t traj.Trajectory, meta TrajMeta, tau float64) (Result, Pruned) {
	n, m := t.Len(), s.q.Len()
	lo := m - s.xi
	if lo < 1 {
		lo = 1
	}
	hi := m + s.xi
	if lo > n {
		// whole-trajectory fallback, exactly as the unpruned search
		r := Result{
			Interval: traj.Interval{I: 0, J: n - 1},
			Dist:     s.m.Dist(t, s.q),
			Explored: 1,
		}
		if r.Dist > tau {
			return r, PrunedAbandon
		}
		return r, NotPruned
	}
	best := Result{Dist: math.Inf(1)}
	inc := s.m.NewIncremental(t, s.q)
	defer sim.Release(inc)
	tinc, _ := inc.(sim.ThresholdIncremental)
	explored := 0
	for i := 0; i < n; i++ {
		if i+lo-1 >= n {
			break
		}
		d := inc.Init(i)
		explored++
		if lo == 1 && d < best.Dist {
			best.Dist = d
			best.Interval = traj.Interval{I: i, J: i}
		}
		bsf := math.Min(best.Dist, tau)
		// the unpruned search evaluates j up to min(n-1, i+hi-1); count
		// them all so Explored stays the deterministic logical size
		top := i + hi - 1
		if top > n-1 {
			top = n - 1
		}
		explored += top - i
		for j := i + 1; j <= top; j++ {
			if tinc != nil {
				var abandoned bool
				d, abandoned = tinc.ExtendAbandoning(bsf)
				if abandoned {
					break
				}
			} else {
				d = inc.Extend()
			}
			if j-i+1 >= lo && d < best.Dist {
				best.Dist = d
				best.Interval = traj.Interval{I: i, J: j}
				bsf = math.Min(best.Dist, tau)
			}
		}
	}
	best.Explored = explored
	if best.Dist > tau {
		return best, PrunedAbandon
	}
	return best, NotPruned
}

func (s *sizeThresholdSearch) Release() {}

// splitThresholdSearch implements ThresholdSearch for the splitting family
// (PSS, POS, POS-D). Splitting decisions depend on every prefix/suffix
// value the scan sees, so the inner DP cannot abandon without changing the
// answer; the threshold instead gates the whole candidate through the
// lower-bound cascade — valid because every split the algorithms report is
// a genuine subtrajectory, whose distance the cascade bounds from below —
// and suppresses completed results beyond tau. Suffix state reuses the
// store's precomputed reversal, the reversed query computed once per scan,
// and a scratch buffer reused across candidates.
type splitThresholdSearch struct {
	cascade
	m      sim.Measure
	suffix bool // PSS: scan suffixes as well as prefixes
	delay  int  // POS-D split delay
	q      traj.Trajectory
	qRev   traj.Trajectory
	suf    []float64
}

// NewThresholdSearch implements ThresholdSearcher.
func (a PSS) NewThresholdSearch(q traj.Trajectory) ThresholdSearch {
	return &splitThresholdSearch{cascade: cascadeFor(a.M, q), m: a.M, suffix: true, q: q, qRev: q.Reverse()}
}

// NewThresholdSearch implements ThresholdSearcher.
func (a POS) NewThresholdSearch(q traj.Trajectory) ThresholdSearch {
	return &splitThresholdSearch{cascade: cascadeFor(a.M, q), m: a.M, q: q}
}

// NewThresholdSearch implements ThresholdSearcher.
func (a POSD) NewThresholdSearch(q traj.Trajectory) ThresholdSearch {
	return &splitThresholdSearch{cascade: cascadeFor(a.M, q), m: a.M, delay: a.D, q: q}
}

func (s *splitThresholdSearch) Search(t traj.Trajectory, meta TrajMeta, tau float64) (Result, Pruned) {
	var r Result
	if s.suffix {
		tr := meta.Rev
		if tr.Len() != t.Len() {
			tr = t.Reverse() // defensive: zero-value meta
		}
		s.suf = sim.SuffixDistsInto(s.suf, s.m, tr, s.qRev)
		r = pssScan(s.m, t, s.q, s.suf)
	} else {
		r = posSearch(s.m, t, s.q, s.delay)
	}
	if r.Dist > tau {
		return r, PrunedAbandon
	}
	return r, NotPruned
}

func (s *splitThresholdSearch) Release() {}

// heapThresholder folds a scan's own top-k heap root together with an
// optional external (engine-global) threshold.
type heapThresholder struct {
	h      *topKHeap
	extern Thresholder
}

func (ht *heapThresholder) Threshold() float64 {
	tau := math.Inf(1)
	if ht.extern != nil {
		tau = ht.extern.Threshold()
	}
	if ht.h.k > 0 && len(ht.h.ms) == ht.h.k {
		if r := ht.h.ms[0].Result.Dist; r < tau {
			tau = r
		}
	}
	return tau
}

// SharedKth is the engine-global best-so-far: a bounded max-heap of the k
// smallest distances offered so far across every shard worker, publishing
// its k-th-best through an atomic so scan loops read it without locking.
// An optional external seed (Seed) caps the published threshold from the
// start, so a caller that already knows an upper bound of the final k-th
// best — a distributed coordinator propagating its running global bound —
// lets the scan prune before its own heap fills. The zero value is
// unusable; use NewSharedKth.
type SharedKth struct {
	mu    sync.Mutex
	k     int
	seed  float64
	dists []float64
	bits  atomic.Uint64
}

// NewSharedKth builds a SharedKth for rankings of size k.
func NewSharedKth(k int) *SharedKth {
	s := &SharedKth{k: k, seed: math.Inf(1)}
	s.bits.Store(math.Float64bits(math.Inf(1)))
	return s
}

// Seed tightens the published threshold with an externally known upper
// bound of the final k-th-best distance. Seeding preserves the pruning
// invariant only if d really is such an upper bound: every pruning
// comparison stays strict, so matches at exactly the bound survive, but
// matches strictly beyond it may be dropped. Seeding never raises the
// threshold; NaN seeds are ignored.
func (s *SharedKth) Seed(d float64) {
	if s.k <= 0 || math.IsNaN(d) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if d < s.seed {
		s.seed = d
		s.publish()
	}
}

// publish stores min(seed, own k-th best) into the atomic. Callers hold mu.
func (s *SharedKth) publish() {
	v := s.seed
	if len(s.dists) == s.k && s.dists[0] < v {
		v = s.dists[0]
	}
	s.bits.Store(math.Float64bits(v))
}

// Offer feeds one match distance into the shared top-k.
func (s *SharedKth) Offer(d float64) {
	if s.k <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case len(s.dists) < s.k:
		s.dists = append(s.dists, d)
		s.up(len(s.dists) - 1)
	case d < s.dists[0]:
		s.dists[0] = d
		s.down(0)
	default:
		return
	}
	if len(s.dists) == s.k {
		s.publish()
	}
}

// Threshold implements Thresholder: the current k-th best distance, +Inf
// until k offers have arrived.
func (s *SharedKth) Threshold() float64 {
	return math.Float64frombits(s.bits.Load())
}

func (s *SharedKth) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if s.dists[p] >= s.dists[i] {
			break
		}
		s.dists[p], s.dists[i] = s.dists[i], s.dists[p]
		i = p
	}
}

func (s *SharedKth) down(i int) {
	n := len(s.dists)
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && s.dists[l] > s.dists[big] {
			big = l
		}
		if r < n && s.dists[r] > s.dists[big] {
			big = r
		}
		if big == i {
			return
		}
		s.dists[i], s.dists[big] = s.dists[big], s.dists[i]
		i = big
	}
}

// ScanPrunedCtx is ScanFilteredCtx with the threshold pipeline: candidates
// whose lower bound beats the threshold are skipped, per-trajectory
// searches abandon against it, and fn only sees matches that could still
// enter a top-k whose k-th-best distance is th.Threshold() — in ascending
// lower-bound order, not candidate order. Algorithms that do not implement
// ThresholdSearcher are scanned unpruned, in candidate order. st, when
// non-nil, receives the scan's pruning counters; it is not synchronized.
func (db *Database) ScanPrunedCtx(ctx context.Context, alg Algorithm, q traj.Trajectory, filter *geo.Rect, th Thresholder, st *PruneStats, fn func(Match) error) error {
	return db.ScanPrunedSourceCtx(ctx, alg, q, filter, th, st, nil, fn)
}

// ScanPrunedSourceCtx is ScanPrunedCtx with the candidate enumeration
// swapped for src (nil = the Database's spatial enumeration, making it
// exactly ScanPrunedCtx). The threshold pipeline is identical whatever the
// source: each candidate the source yields flows through the lower-bound
// cascade, the abandoning search and the result post-filter unchanged.
func (db *Database) ScanPrunedSourceCtx(ctx context.Context, alg Algorithm, q traj.Trajectory, filter *geo.Rect, th Thresholder, st *PruneStats, src CandidateSource, fn func(Match) error) error {
	if st == nil {
		st = &PruneStats{}
	}
	if th == nil {
		th = NoThreshold
	}
	ts, ok := alg.(ThresholdSearcher)
	if !ok {
		for _, ci := range db.candidatesFrom(src, q, filter) {
			if err := ctx.Err(); err != nil {
				return err
			}
			t := db.be.Traj(ci)
			if t.Len() == 0 {
				continue
			}
			st.Candidates++
			st.Scored++
			if err := fn(Match{TrajIndex: ci, Result: alg.Search(t, q)}); err != nil {
				return err
			}
		}
		return nil
	}
	search := ts.NewThresholdSearch(q)
	defer search.Release()
	// Best-first: bound every candidate once, then visit in ascending
	// (bound, index) order, so the threshold tightens within the first few
	// dozen candidates instead of after ~k·ln(N/k) record-breakers in ID
	// order — and the first bound beyond it ends the scan, every later one
	// being larger still. Rankings cannot change: what the heap retains is
	// a function of the match set under RankBefore, not of the offer order
	// (the argument batch.go spells out). Searches that cannot bound report
	// 0 for every candidate and so keep ID order.
	cands := db.candidatesFrom(src, q, filter)
	order := make([]boundedCand, 0, len(cands))
	for _, ci := range cands {
		if err := ctx.Err(); err != nil {
			return err
		}
		t := db.be.Traj(ci)
		if t.Len() == 0 {
			continue
		}
		st.Candidates++
		tau := th.Threshold()
		if b := search.Bound(t, db.Meta(ci), tau); b > tau {
			st.LBSkipped++
		} else {
			order = append(order, boundedCand{bound: b, index: ci})
		}
	}
	slices.SortFunc(order, func(a, b boundedCand) int {
		return cmp.Or(cmp.Compare(a.bound, b.bound), cmp.Compare(a.index, b.index))
	})
	for i, c := range order {
		if err := ctx.Err(); err != nil {
			return err
		}
		tau := th.Threshold()
		if c.bound > tau {
			st.LBSkipped += int64(len(order) - i)
			break
		}
		r, pruned := search.Search(db.be.Traj(c.index), db.Meta(c.index), tau)
		if pruned != NotPruned {
			st.Abandoned++
			continue
		}
		st.Scored++
		if err := fn(Match{TrajIndex: c.index, Result: r}); err != nil {
			return err
		}
	}
	return nil
}

// boundedCand is one entry of a scan's visit order: a candidate and its
// cascade bound.
type boundedCand struct {
	bound float64
	index int
}

// TopKPrunedCtx is TopKFilteredCtx with the threshold pipeline: the scan
// prunes against its own running k-th best, tightened by the global
// k-th-best published through shared when non-nil (the engine passes one
// SharedKth across all shard workers). Every scored match is offered to
// shared so concurrent scans tighten each other. The ranking is
// byte-identical to the unpruned scan's.
func (db *Database) TopKPrunedCtx(ctx context.Context, alg Algorithm, q traj.Trajectory, k int, filter *geo.Rect, shared *SharedKth, st *PruneStats) ([]Match, error) {
	return db.TopKPrunedSourceCtx(ctx, alg, q, k, filter, shared, st, nil)
}

// TopKPrunedSourceCtx is TopKPrunedCtx over src's candidates (nil = the
// spatial enumeration). With an approximate source the result is the exact
// top-k OF THE CANDIDATES THE SOURCE RETURNED — every retained match
// carries the same exact distance the spatial scan would have computed for
// it, but trajectories the source omitted are simply absent.
func (db *Database) TopKPrunedSourceCtx(ctx context.Context, alg Algorithm, q traj.Trajectory, k int, filter *geo.Rect, shared *SharedKth, st *PruneStats, src CandidateSource) ([]Match, error) {
	h := topKHeap{k: k}
	var extern Thresholder
	if shared != nil {
		extern = shared
	}
	th := heapThresholder{h: &h, extern: extern}
	if err := db.ScanPrunedSourceCtx(ctx, alg, q, filter, &th, st, src, func(m Match) error {
		h.offer(m)
		if shared != nil {
			shared.Offer(m.Result.Dist)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return h.sorted(), nil
}
