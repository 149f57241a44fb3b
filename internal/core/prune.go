package core

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sort"
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
//	gate       sim.FreeStartMeasure (DTW, Fréchet, ERP, EDR) finds a
//	           trajectory's best distance in one O(n·m) pass and drops
//	           it beyond the threshold; within it, a reverse gate (DTW,
//	           Fréchet) and the interval rows find where that distance
//	           is attained (ExactS). The gate alone (Beyond, DTW and
//	           Fréchet) drops a candidate before the two passes of PSS
//	           and Θsuf RLS;
//	kernel     sim.Incremental.ExtendAbandoning abandons a DP scan once
//	           no extension can beat the threshold;
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
// to threshold-aware searches, so the scan hot path never re-derives MBRs.
// Suffix passes reverse candidates into per-scan scratch (suffixPass).
type TrajMeta struct {
	// N is the trajectory's point count.
	N int
	// MBR is the trajectory's minimum bounding rectangle.
	MBR geo.Rect
	// Emb is the trajectory's embedding under the engine's registered
	// encoder, or nil/empty when no encoder is registered. Its length must
	// equal the encoder's Dim; consumers treat a mismatched length as
	// "not embedded" (a stale vector from a swapped-out encoder must never
	// be compared).
	Emb []float64
}

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
	// Search is Algorithm.Search with pruning against tau. When abandoned
	// is false, Result is byte-identical (interval and distance; Explored
	// is the deterministic logical count) to the unpruned Search.
	// Otherwise every subtrajectory the unpruned search could have
	// reported has distance strictly greater than tau and the Result must
	// be discarded.
	Search(t traj.Trajectory, meta TrajMeta, tau float64) (r Result, abandoned bool)
	// Release returns pooled scratch; the search is unusable afterwards.
	Release()
}

// cascade is the measure's per-query lower-bound cascade, embedded by the
// threshold searches it is sound for; lb is nil when the measure has none
// or the search cannot use it.
//
// A search that reads suffix values (suffixPass) builds it with
// suffixCascadeFor. Those values are reversed folds, which may sit ulps
// below the forward distances the bounds are proved against, so its Bound
// and its last stage, beyond, take sim.SuffixSlack.
type cascade struct {
	lb   sim.SubtrajLB
	m    sim.Measure     // non-nil: suffix-reading, bounds take the slack
	gate freeStartGate   // suffix-reading only, nil without a free-start gate
	q    traj.Trajectory // the query, for the slack and the gate
}

// freeStartGate is a free-start pass's gate on its own (sim.DTW and
// sim.Frechet): Beyond reports that every subtrajectory of t is strictly
// farther than tau from q.
type freeStartGate interface {
	Beyond(t, q traj.Trajectory, tau float64) bool
}

// cascadeFor builds the measure's cascade when it has one.
func cascadeFor(m sim.Measure, q traj.Trajectory) cascade {
	if b, ok := m.(sim.SubtrajLowerBounder); ok {
		return cascade{lb: b.NewSubtrajLB(q)}
	}
	return cascade{}
}

// suffixCascadeFor is cascadeFor for a search with a suffixPass, ending in
// the measure's free-start gate when it has one.
func suffixCascadeFor(m sim.Measure, q traj.Trajectory) cascade {
	c := cascadeFor(m, q)
	c.m, c.q = m, q
	c.gate, _ = m.(freeStartGate)
	return c
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
	b := c.lb.LowerBound(t, mbr, tau)
	if c.m != nil {
		b *= 1 - sim.SuffixSlack(c.m, t.Len(), c.q.Len())
	}
	return b
}

// beyond is the cascade's last stage, run by a suffix-reading search just
// before its two passes: the free-start gate proves the best distance d*
// of any subtrajectory of t beyond tau, with the suffix slack. Every
// interval the search could report is a genuine subtrajectory, its value
// at least d* up to that slack, so the search would be abandoned anyway.
// ERP and EDR have no such gate: theirs cannot stop before its end, and a
// prototype gating edr/pss with it measured 16% slower.
func (c cascade) beyond(t traj.Trajectory, tau float64) bool {
	return c.gate != nil && !math.IsInf(tau, 1) &&
		c.gate.Beyond(t, c.q, tau*(1+sim.SuffixSlack(c.m, t.Len(), c.q.Len())))
}

// prunes reports whether the cascade proves every subtrajectory of t is
// strictly farther than tau.
func (c cascade) prunes(t traj.Trajectory, meta TrajMeta, tau float64) bool {
	return !math.IsInf(tau, 1) && c.Bound(t, meta, tau) > tau
}

// exactThresholdSearch implements ThresholdSearch for ExactS. When the
// measure has a free-start form (sim.FreeStartMeasure) one pruned O(n·m)
// pass returns the answer — the lexicographically first minimizing interval
// and its distance, bit-identical to the enumeration — or abandons once the
// minimum is provably beyond tau. Otherwise it enumerates (enumerate).
type exactThresholdSearch struct {
	cascade
	m    sim.Measure
	gate sim.FreeStartMeasure // nil: enumerate
	q    traj.Trajectory
}

// NewThresholdSearch implements ThresholdSearcher.
func (a ExactS) NewThresholdSearch(q traj.Trajectory) ThresholdSearch {
	gate, _ := a.M.(sim.FreeStartMeasure)
	return &exactThresholdSearch{cascade: cascadeFor(a.M, q), m: a.M, gate: gate, q: q}
}

func (s *exactThresholdSearch) Search(t traj.Trajectory, meta TrajMeta, tau float64) (Result, bool) {
	n := t.Len()
	if s.gate == nil {
		return within(enumerate(s.m, t, s.q, 1, n, tau), tau)
	}
	iv, d, abandoned := s.gate.MinSub(t, s.q, tau)
	// Explored is the logical candidate count, as enumerate counts it
	return Result{Interval: iv, Dist: d, Explored: n * (n + 1) / 2}, abandoned
}

func (s *exactThresholdSearch) Release() {}

// enumerate is ExactS's enumeration over the intervals of t whose length
// lies in [lo, hi], with early-abandoning inner scans: per start index i,
// abandoning skips only evaluations the kernel proved strictly worse than
// min(local best, tau), so the first minimizer — interval tie-breaking
// included — is exactly the unpruned one whenever the true best is within
// tau. Explored counts every interval in the window, not the evaluations
// performed — see the determinism note in the file comment.
func enumerate(m sim.Measure, t, q traj.Trajectory, lo, hi int, tau float64) Result {
	n := t.Len()
	best := Result{Dist: math.Inf(1)}
	inc := m.NewIncremental(t, q)
	defer sim.Release(inc)
	for i := 0; i+lo-1 < n; i++ {
		d := inc.Init(i)
		if lo == 1 && d < best.Dist {
			best.Dist = d
			best.Interval = traj.Interval{I: i, J: i}
		}
		bsf := math.Min(best.Dist, tau)
		top := min(i+hi-1, n-1)
		best.Explored += top - i + 1
		for j := i + 1; j <= top; j++ {
			d, abandoned := inc.ExtendAbandoning(bsf)
			if abandoned {
				break
			}
			if j-i+1 >= lo && d < best.Dist {
				best.Dist = d
				best.Interval = traj.Interval{I: i, J: j}
				bsf = math.Min(best.Dist, tau)
			}
		}
	}
	return best
}

// within is the result level of the pipeline: a completed search whose
// best distance is beyond tau is suppressed.
func within(r Result, tau float64) (Result, bool) { return r, r.Dist > tau }

// sizeThresholdSearch is SizeS's enumeration over its [m-ξ, m+ξ] length
// window.
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

func (s *sizeThresholdSearch) Search(t traj.Trajectory, meta TrajMeta, tau float64) (Result, bool) {
	n, m := t.Len(), s.q.Len()
	lo := max(m-s.xi, 1)
	if lo > n {
		// whole-trajectory fallback, exactly as the unpruned search
		return within(Result{Interval: traj.Interval{I: 0, J: n - 1}, Dist: s.m.Dist(t, s.q), Explored: 1}, tau)
	}
	return within(enumerate(s.m, t, s.q, lo, m+s.xi, tau), tau)
}

func (s *sizeThresholdSearch) Release() {}

// splitThresholdSearch implements ThresholdSearch for the splitting family
// (PSS, POS, POS-D). Splitting decisions depend on every prefix/suffix
// value the scan sees, so the inner DP cannot abandon without changing the
// answer; the threshold instead gates the whole candidate through the
// lower-bound cascade — valid because every split the algorithms report is
// a genuine subtrajectory, whose distance the cascade bounds from below —
// and suppresses completed results beyond tau. PSS's suffix state comes
// from the scan's suffixPass, and PSS alone runs the cascade's free-start
// gate before its two passes: POS is one pass, and a prototype gating it
// measured 17–20% slower.
type splitThresholdSearch struct {
	cascade
	*suffixPass // PSS only: nil for the prefix-only POS and POS-D
	m           sim.Measure
	delay       int // POS-D split delay
	q           traj.Trajectory
}

// NewThresholdSearch implements ThresholdSearcher.
func (a PSS) NewThresholdSearch(q traj.Trajectory) ThresholdSearch {
	return &splitThresholdSearch{cascade: suffixCascadeFor(a.M, q), suffixPass: &suffixPass{m: a.M, qRev: q.Reverse()}, m: a.M, q: q}
}

// NewThresholdSearch implements ThresholdSearcher.
func (a POS) NewThresholdSearch(q traj.Trajectory) ThresholdSearch {
	return &splitThresholdSearch{cascade: cascadeFor(a.M, q), m: a.M, q: q}
}

// NewThresholdSearch implements ThresholdSearcher.
func (a POSD) NewThresholdSearch(q traj.Trajectory) ThresholdSearch {
	return &splitThresholdSearch{cascade: cascadeFor(a.M, q), m: a.M, delay: a.D, q: q}
}

func (s *splitThresholdSearch) Search(t traj.Trajectory, meta TrajMeta, tau float64) (Result, bool) {
	var r Result
	if s.suffixPass != nil {
		if s.beyond(t, tau) {
			return r, true
		}
		r = pssScan(s.m, t, s.q, s.dists(t))
	} else {
		r = posSearch(s.m, t, s.q, s.delay)
	}
	return within(r, tau)
}

func (s *splitThresholdSearch) Release() {}

// suffixPass is one scan's suffix similarities (PSS, Algorithm 2 lines
// 2–3, and the RLS state Θsuf): the measure run over the reversed candidate
// against qRev, the query reversed once per scan. Each candidate is
// reversed into rev, an O(n) copy beside the O(n·m) pass; rev and suf are
// reused across candidates, so the pass allocates nothing per candidate.
type suffixPass struct {
	m    sim.Measure
	qRev traj.Trajectory
	rev  []geo.Point
	suf  []float64
}

// dists returns d(T[i,n-1]^R, Q^R) for every start index i of t. The slice
// is scratch: the next call overwrites it.
func (p *suffixPass) dists(t traj.Trajectory) []float64 {
	p.rev = append(p.rev[:0], t.Points...)
	slices.Reverse(p.rev)
	p.suf = sim.SuffixDistsInto(p.suf, p.m, traj.Trajectory{ID: t.ID, Points: p.rev}, p.qRev)
	return p.suf
}

// Collector is the result set and the threshold of a top-k scan in one: a
// bounded max-heap of the k best matches offered so far under RankBefore,
// publishing min(seed, k-th-best distance) through an atomic so scan loops
// read the threshold without locking. Every top-k in the repository ends in
// one — a serial scan's, an engine query's shard workers (offering under
// global trajectory IDs, so one shard's good matches prune another's scan)
// and the router's provisional-match gate. An optional external seed (Seed)
// caps the published threshold from the start, so a caller that already
// knows an upper bound of the final k-th-best — a distributed coordinator
// propagating its running global bound — lets the scan prune before the
// heap fills. What a Collector retains is a function of the SET of matches
// offered, not of their order: RankBefore is a strict total order, and the
// scan only withholds a match it has proved strictly beyond a threshold
// that never rises. The zero value is unusable; use NewCollector.
type Collector struct {
	mu   sync.Mutex
	k    int
	seed float64
	ms   []Match // max-heap under matchLess: the worst retained match at the root
	bits atomic.Uint64
}

// NewCollector builds a Collector for rankings of size k; k <= 0 retains
// nothing.
func NewCollector(k int) *Collector {
	c := &Collector{k: k, seed: math.Inf(1)}
	c.bits.Store(math.Float64bits(math.Inf(1)))
	return c
}

// Seed tightens the published threshold with an externally known upper
// bound of the final k-th-best distance. Seeding preserves the pruning
// invariant only if d really is such an upper bound: every pruning
// comparison stays strict, so matches at exactly the bound survive, but
// matches strictly beyond it may be dropped. Seeding never raises the
// threshold; NaN seeds are ignored.
func (c *Collector) Seed(d float64) {
	if c.k <= 0 || math.IsNaN(d) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if d < c.seed {
		c.seed = d
		c.publish()
	}
}

// publish stores min(seed, own k-th best) into the atomic. Callers hold mu.
func (c *Collector) publish() {
	v := c.seed
	if len(c.ms) == c.k && c.ms[0].Result.Dist < v {
		v = c.ms[0].Result.Dist
	}
	c.bits.Store(math.Float64bits(v))
}

// Offer feeds one match into the running top-k and reports whether it was
// retained (it may still be displaced by a later, better offer).
func (c *Collector) Offer(m Match) bool {
	if c.k <= 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case len(c.ms) < c.k:
		c.ms = append(c.ms, m)
		for i := len(c.ms) - 1; i > 0; {
			p := (i - 1) / 2
			if !matchLess(c.ms[p], c.ms[i]) {
				break
			}
			c.ms[p], c.ms[i] = c.ms[i], c.ms[p]
			i = p
		}
	case matchLess(m, c.ms[0]):
		c.ms[0] = m
		c.down(0)
	default:
		return false
	}
	if len(c.ms) == c.k {
		c.publish()
	}
	return true
}

// offer is Offer as a scan callback.
func (c *Collector) offer(m Match) error {
	c.Offer(m)
	return nil
}

// down restores the max-heap property below position i.
func (c *Collector) down(i int) {
	for {
		worst := i
		for _, ch := range [2]int{2*i + 1, 2*i + 2} {
			if ch < len(c.ms) && matchLess(c.ms[worst], c.ms[ch]) {
				worst = ch
			}
		}
		if worst == i {
			return
		}
		c.ms[i], c.ms[worst] = c.ms[worst], c.ms[i]
		i = worst
	}
}

// Threshold is the scan's best-so-far bound: min(seed, k-th best
// distance), +Inf until k matches are retained and no seed was given. It
// is safe for concurrent use, and a nil Collector never prunes.
func (c *Collector) Threshold() float64 {
	if c == nil {
		return math.Inf(1)
	}
	return math.Float64frombits(c.bits.Load())
}

// Sorted returns a copy of the retained matches in ascending RankBefore
// order.
func (c *Collector) Sorted() []Match {
	c.mu.Lock()
	out := slices.Clone(c.ms)
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return matchLess(out[i], out[j]) })
	return out
}

// ScanPrunedSourceCtx is the one threshold scan every top-k runs on:
// ScanFilteredCtx with the threshold pipeline. It scans cands restricted to
// the filter — nil cands means Candidates(q, filter), and an empty non-nil
// list scans nothing; a non-nil list is the scan's to compact in place.
// Candidates whose lower bound beats the threshold are skipped,
// per-trajectory searches abandon against it, and fn only sees matches that
// could still enter a top-k whose k-th-best distance is col.Threshold()
// (a nil col never prunes) — in ascending lower-bound order, not candidate
// order. The pipeline is identical whatever the list: each candidate flows
// through the lower-bound cascade, the abandoning search and the result
// post-filter unchanged, so an approximate list (the engine's embedding
// prefilter) is reranked exactly. Algorithms that do not implement
// ThresholdSearcher are scanned unpruned, in candidate order. st, when
// non-nil, receives the scan's pruning counters; it is not synchronized.
func (db *Database) ScanPrunedSourceCtx(ctx context.Context, alg Algorithm, q traj.Trajectory, filter *geo.Rect, col *Collector, st *PruneStats, cands []int, fn func(Match) error) error {
	if st == nil {
		st = &PruneStats{}
	}
	cands = db.candidates(q, filter, cands)
	done := ctx.Done()
	ts, ok := alg.(ThresholdSearcher)
	if !ok {
		for _, ci := range cands {
			if stopped(done) {
				return ctx.Err()
			}
			t := db.trajs[ci]
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
	// being larger still. Rankings cannot change: what a Collector retains
	// is a function of the match set under RankBefore, not of the offer
	// order. Searches that cannot bound report 0 for every candidate and so
	// keep ID order.
	order := make([]boundedCand, 0, len(cands))
	for _, ci := range cands {
		if stopped(done) {
			return ctx.Err()
		}
		t := db.trajs[ci]
		if t.Len() == 0 {
			continue
		}
		st.Candidates++
		tau := col.Threshold()
		if b := search.Bound(t, db.metas[ci], tau); b > tau {
			st.LBSkipped++
		} else {
			order = append(order, boundedCand{bound: b, index: ci})
		}
	}
	slices.SortFunc(order, func(a, b boundedCand) int {
		return cmp.Or(cmp.Compare(a.bound, b.bound), cmp.Compare(a.index, b.index))
	})
	for i, c := range order {
		if stopped(done) {
			return ctx.Err()
		}
		tau := col.Threshold()
		if c.bound > tau {
			st.LBSkipped += int64(len(order) - i)
			break
		}
		r, abandoned := search.Search(db.trajs[c.index], db.metas[c.index], tau)
		if abandoned {
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

// stopped polls a context's done channel without blocking. A scan checks
// for cancellation once per candidate, and every shard worker of a query
// checks the same context: ctx.Err would take that context's lock each
// time.
func stopped(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// boundedCand is one entry of a scan's visit order: a candidate and its
// cascade bound.
type boundedCand struct {
	bound float64
	index int
}

// TopKPrunedCtx is the one top-k over ScanPrunedSourceCtx: the k best
// matches among cands (nil = Candidates(q, filter)), restricted to
// trajectories whose MBR intersects a non-nil filter, the scan pruning
// against its own running k-th best. The context is checked between
// per-trajectory searches — a single search is not interruptible — and on
// cancellation the result is (nil, ctx.Err()). Over the spatial candidates
// the ranking is byte-identical to the unpruned scan's; over an explicit
// list it is the exact top-k OF THAT LIST — every retained match carries
// the same exact distance the spatial scan would have computed for it, but
// trajectories the list omits are simply absent.
func (db *Database) TopKPrunedCtx(ctx context.Context, alg Algorithm, q traj.Trajectory, k int, filter *geo.Rect, cands []int, st *PruneStats) ([]Match, error) {
	c := NewCollector(k)
	if err := db.ScanPrunedSourceCtx(ctx, alg, q, filter, c, st, cands, c.offer); err != nil {
		return nil, err
	}
	return c.Sorted(), nil
}
