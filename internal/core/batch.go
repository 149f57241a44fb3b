package core

import (
	"context"
	"math"

	"simsub/internal/geo"
	"simsub/internal/rl"
	"simsub/internal/traj"
)

// This file is the batched scan pipeline: the lane-feeding counterpart of
// the sequential threshold scan for searches whose per-candidate work is
// dominated by policy inference. The scan loop feeds candidates into a
// fixed number of lanes; the search advances all in-flight walks in
// lockstep (one batched inference per round — rl.BatchRunner) and hands
// back results as walks complete, in completion order rather than candidate
// order.
//
// Why out-of-order delivery keeps rankings byte-identical: the top-k heap
// retains the k best matches under the strict total order RankBefore, so
// its final contents are a function of the match SET, not the offer order.
// A candidate is dropped only against a provable bound that beats the
// current threshold — the lower-bound cascade before feeding (full-state
// policies only, see the RLS note in rls.go) or the completed distance at
// delivery — and the current threshold is an upper bound on the final k-th
// best, so a dropped match could never be retained by any offer order. The
// batched scan therefore returns exactly the sequential scan's ranking;
// only the PruneStats counters (how many candidates were LB-skipped vs.
// scored vs. suppressed) may differ, since the batched path reads the
// threshold at feed time for the cascade but at completion time for the
// post-filter, while in-flight lanes delay its tightening.

// BatchResult is one completed search of a batched scan: the caller-chosen
// candidate tag and the walk's result.
type BatchResult struct {
	Tag int
	R   Result
}

// BatchThresholdSearcher is a ThresholdSearcher that can also run its
// per-candidate searches in lockstep lanes. NewBatchThresholdSearch mirrors
// NewThresholdSearch: per-query state, single-goroutine, released after the
// scan.
type BatchThresholdSearcher interface {
	ThresholdSearcher
	NewBatchThresholdSearch(q traj.Trajectory, lanes int) BatchThresholdSearch
}

// BatchThresholdSearch is the lane-feeding form of ThresholdSearch. Feed
// enqueues one candidate and returns any searches that completed while
// making room for it; Drain completes every in-flight search. Returned
// slices are valid until the next Feed or Drain call. The threshold
// post-filter is the scan loop's job — results come back unfiltered, so
// the loop can apply the freshest threshold at completion time; PrunesLB
// is the candidate-level gate the loop consults before feeding, mirroring
// the sequential path's lower-bound cascade (false when the search cannot
// prove anything about this candidate).
type BatchThresholdSearch interface {
	Feed(t traj.Trajectory, meta TrajMeta, tag int) []BatchResult
	PrunesLB(t traj.Trajectory, meta TrajMeta, tau float64) bool
	Drain() []BatchResult
	Release()
}

// NewBatchThresholdSearch implements BatchThresholdSearcher for the learned
// searches: candidates are walked in lockstep lanes by an rl.BatchRunner
// over the policy network. Lockstep lanes exist to amortize network
// inference into one mat-mat pass per round; a compiled table has no
// inference to amortize, and keeping walks in flight only delays threshold
// tightening, so table-backed searches run each candidate synchronously
// through the fused sequential walk instead (same lane-feeding interface,
// one completed result per Feed).
func (a RLS) NewBatchThresholdSearch(q traj.Trajectory, lanes int) BatchThresholdSearch {
	_, useSuffix, simplify, ok := a.params()
	if !ok || q.Len() == 0 {
		return &rlsBatchSearch{} // degenerate: every candidate reports an infinite distance
	}
	if a.Table != nil {
		seq, _ := a.NewThresholdSearch(q).(*rlsThresholdSearch)
		return &rlsSeqBatchSearch{s: seq}
	}
	s := &rlsBatchSearch{}
	if !simplify {
		// full-state policies report genuine subtrajectory distances, so the
		// lower-bound cascade is sound — see the NewThresholdSearch comment
		s.cascade = cascadeFor(a.M, q)
	}
	s.runner = rl.NewBatchRunner(a.M, q, rl.EnvConfig{
		UseSuffix:     useSuffix,
		SimplifyState: simplify,
	}, a.src(), lanes)
	return s
}

// rlsSeqBatchSearch adapts the sequential threshold search to the
// lane-feeding interface for table-backed policies: Feed completes the
// candidate's walk before returning, so delivery order equals feed order
// and the scan's pruning behavior is exactly the sequential path's.
type rlsSeqBatchSearch struct {
	s   *rlsThresholdSearch
	out [1]BatchResult
}

func (b *rlsSeqBatchSearch) PrunesLB(t traj.Trajectory, meta TrajMeta, tau float64) bool {
	return b.s.prunes(t, meta, tau)
}

func (b *rlsSeqBatchSearch) Feed(t traj.Trajectory, meta TrajMeta, tag int) []BatchResult {
	b.out[0] = BatchResult{Tag: tag, R: b.s.search(t, meta)}
	return b.out[:1]
}

func (b *rlsSeqBatchSearch) Drain() []BatchResult { return nil }

func (b *rlsSeqBatchSearch) Release() { b.s.Release() }

type rlsBatchSearch struct {
	cascade // armed only for full-state policies
	runner  *rl.BatchRunner
	out     []BatchResult
}

func (s *rlsBatchSearch) PrunesLB(t traj.Trajectory, meta TrajMeta, tau float64) bool {
	return s.prunes(t, meta, tau)
}

// convert re-shapes finished walks into BatchResults in the search's
// reusable buffer.
func (s *rlsBatchSearch) convert(walks []rl.Walk) []BatchResult {
	s.out = s.out[:0]
	for _, w := range walks {
		s.out = append(s.out, BatchResult{Tag: w.Tag, R: Result{
			Interval: w.Best,
			Dist:     w.Dist,
			Explored: w.Explored,
			Scanned:  w.Scanned,
		}})
	}
	return s.out
}

func (s *rlsBatchSearch) Feed(t traj.Trajectory, meta TrajMeta, tag int) []BatchResult {
	if s.runner == nil || t.Len() == 0 {
		s.out = s.out[:0]
		return append(s.out, BatchResult{Tag: tag, R: Result{Dist: math.Inf(1)}})
	}
	return s.convert(s.runner.Add(tag, t, meta.Rev))
}

func (s *rlsBatchSearch) Drain() []BatchResult {
	if s.runner == nil {
		return nil
	}
	return s.convert(s.runner.Flush())
}

func (s *rlsBatchSearch) Release() {
	if s.runner != nil {
		s.runner.Release()
	}
}

// TopKPrunedBatchCtx is TopKPrunedCtx with the per-candidate searches run
// through the algorithm's batched lane path when it has one: candidates
// are fed into `lanes` lockstep lanes and their completed results offered
// to the heap in completion order, with the threshold applied as a
// post-filter at completion time. The returned ranking is byte-identical
// to TopKPrunedCtx's (see the file comment); PruneStats counters may
// differ. Algorithms without a batched path — or lanes < 2 — fall back to
// the sequential scan.
func (db *Database) TopKPrunedBatchCtx(ctx context.Context, alg Algorithm, q traj.Trajectory, k int, filter *geo.Rect, shared *SharedKth, st *PruneStats, lanes int) ([]Match, error) {
	return db.TopKPrunedBatchSourceCtx(ctx, alg, q, k, filter, shared, st, nil, lanes)
}

// TopKPrunedBatchSourceCtx is TopKPrunedBatchCtx over src's candidates
// (nil = the spatial enumeration); see TopKPrunedSourceCtx for the
// approximate-source semantics.
func (db *Database) TopKPrunedBatchSourceCtx(ctx context.Context, alg Algorithm, q traj.Trajectory, k int, filter *geo.Rect, shared *SharedKth, st *PruneStats, src CandidateSource, lanes int) ([]Match, error) {
	bs, ok := alg.(BatchThresholdSearcher)
	if !ok || lanes < 2 {
		return db.TopKPrunedSourceCtx(ctx, alg, q, k, filter, shared, st, src)
	}
	if st == nil {
		st = &PruneStats{}
	}
	h := topKHeap{k: k}
	var extern Thresholder
	if shared != nil {
		extern = shared
	}
	th := heapThresholder{h: &h, extern: extern}
	search := bs.NewBatchThresholdSearch(q, lanes)
	defer search.Release()
	deliver := func(rs []BatchResult) {
		for _, br := range rs {
			if br.R.Dist > th.Threshold() {
				st.Abandoned++
				continue
			}
			st.Scored++
			h.offer(Match{TrajIndex: br.Tag, Result: br.R})
			if shared != nil {
				shared.Offer(br.R.Dist)
			}
		}
	}
	for _, ci := range db.candidatesFrom(src, q, filter) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t := db.be.Traj(ci)
		if t.Len() == 0 {
			continue
		}
		st.Candidates++
		meta := db.Meta(ci)
		if search.PrunesLB(t, meta, th.Threshold()) {
			st.LBSkipped++
			continue
		}
		deliver(search.Feed(t, meta, ci))
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	deliver(search.Drain())
	return h.sorted(), nil
}
