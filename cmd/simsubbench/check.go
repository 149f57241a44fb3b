package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"sync/atomic"

	"simsub/api"
	"simsub/internal/core"
	"simsub/internal/engine"
	"simsub/internal/sim"
	"simsub/internal/traj"
)

// oracle answers specs exactly on a benchmark-side copy of the corpus: a
// core.Database pruned ExactS scan with the nodes' index kind (the R-tree,
// whose candidate set does not depend on sharding), which the repository's
// equivalence suites hold byte-identical to brute force over the same
// candidates. It never talks to the system under test.
type oracle struct {
	corpus []traj.Trajectory
	db     *core.Database
}

func newOracle(corpus []traj.Trajectory) *oracle {
	return &oracle{corpus: corpus, db: core.NewDatabase(corpus, true)}
}

// exact returns the exact top-k for the spec's query, measure, k and
// filter, ignoring its algorithm and ann knob, and the measure it used.
func (o *oracle) exact(ctx context.Context, spec api.QuerySpec) ([]core.Match, sim.Measure, traj.Trajectory, error) {
	spec = spec.WithDefaults()
	q, aerr := engine.QueryFromSpec(spec)
	if aerr != nil {
		return nil, nil, traj.Trajectory{}, aerr
	}
	alg, err := engine.ResolveQuery(q.Measure, "exacts", q.Params)
	if err != nil {
		return nil, nil, traj.Trajectory{}, err
	}
	ms, err := o.db.TopKPrunedCtx(ctx, alg, q.Q, q.K, q.Filter, nil, nil)
	if err != nil {
		return nil, nil, traj.Trajectory{}, err
	}
	return ms, alg.(core.ExactS).M, q.Q, nil
}

// truth is the oracle's answer to one spec.
type truth struct {
	exact []core.Match
	m     sim.Measure
	q     traj.Trajectory
	err   error
}

// exactAll answers the listed positions of ops on both processors; the
// results come back in the order of positions, so whatever is summed over
// them is summed in one order however the work was split.
func (o *oracle) exactAll(ctx context.Context, ops []op, positions []int) []truth {
	out := make([]truth, len(positions))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(positions) {
					return
				}
				t := &out[i]
				t.exact, t.m, t.q, t.err = o.exact(ctx, ops[positions[i]].Spec)
			}
		}()
	}
	wg.Wait()
	return out
}

// checkShape validates what every answer must satisfy whatever its
// algorithm: no error, no partial or degraded marker (the workloads never
// opt in), at most k matches, ascending under core.RankBefore, each a valid
// interval of a stored trajectory.
func checkShape(spec api.QuerySpec, res *api.QueryResult, lens func(id int) int) error {
	if res.Error != nil {
		return fmt.Errorf("spec failed: %v", res.Error)
	}
	if res.Partial != nil {
		return fmt.Errorf("partial answer: %d of %d groups failed", res.Partial.NodesFailed, res.Partial.NodesTotal)
	}
	if res.Degraded != nil {
		return fmt.Errorf("degraded answer %s -> %s without opt-in", res.Degraded.From, res.Degraded.To)
	}
	if len(res.Matches) > spec.K {
		return fmt.Errorf("%d matches for k=%d", len(res.Matches), spec.K)
	}
	for i, m := range res.Matches {
		n := lens(m.TrajID)
		if n < 0 {
			return fmt.Errorf("match %d names unknown trajectory %d", i, m.TrajID)
		}
		if m.Start < 0 || m.End < m.Start || m.End >= n {
			return fmt.Errorf("match %d has interval [%d,%d] outside trajectory %d of %d points", i, m.Start, m.End, m.TrajID, n)
		}
		if math.IsNaN(m.Dist) || m.Dist < 0 {
			return fmt.Errorf("match %d has distance %v", i, m.Dist)
		}
		if i > 0 {
			p := res.Matches[i-1]
			if !core.RankBefore(p.Dist, p.TrajID, traj.Interval{I: p.Start, J: p.End}, m.Dist, m.TrajID, traj.Interval{I: m.Start, J: m.End}) {
				return fmt.Errorf("matches %d and %d are out of rank order", i-1, i)
			}
		}
	}
	return nil
}

// digest folds the fields the answer check compares — traj_id, start, end
// and the distance's bits — so rounds can be compared without keeping
// every round's rankings.
func digest(ms []api.Match) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		_, _ = h.Write(b[:])
	}
	for _, m := range ms {
		put(uint64(m.TrajID))
		put(uint64(m.Start))
		put(uint64(m.End))
		put(math.Float64bits(m.Dist))
	}
	return h.Sum64()
}

// sameRanking reports whether a served ranking equals the oracle's, field
// by field with bit-equal distances.
func sameRanking(got []api.Match, want []core.Match) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d matches, oracle has %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.TrajID != w.TrajIndex || g.Start != w.Result.Interval.I || g.End != w.Result.Interval.J ||
			math.Float64bits(g.Dist) != math.Float64bits(w.Result.Dist) {
			return fmt.Errorf("rank %d is (traj %d [%d,%d] dist %v), oracle has (traj %d [%d,%d] dist %v)",
				i, g.TrajID, g.Start, g.End, g.Dist, w.TrajIndex, w.Result.Interval.I, w.Result.Interval.J, w.Result.Dist)
		}
	}
	return nil
}

// isExactSpec reports whether the spec promises the oracle's ranking byte
// for byte: the exact algorithm over the exhaustive candidate set.
func isExactSpec(spec api.QuerySpec) bool {
	return spec.WithDefaults().Algorithm == "exacts" && spec.ANN == nil
}

// quality accumulates the paper's effectiveness measures over the verify
// sample: AR and MR from core.ScoreApproxQuality — the scorer behind the
// engine's own sampled telemetry — and recall@k as the overlap of returned
// and oracle trajectory IDs.
type quality struct {
	ratioSum, rankSum, recallSum float64
	ratios, n                    int
}

func (qa *quality) add(o *oracle, m sim.Measure, q traj.Trajectory, got []api.Match, exact []core.Match) {
	if len(exact) == 0 {
		return // nothing intersects the filter: no ranking to compare
	}
	approx := make([]core.RankedAnswer, len(got))
	in := make(map[int]bool, len(got))
	for i, g := range got {
		approx[i] = core.RankedAnswer{ID: g.TrajID, T: o.corpus[g.TrajID],
			R: core.Result{Interval: traj.Interval{I: g.Start, J: g.End}, Dist: g.Dist}}
		in[g.TrajID] = true
	}
	ex := make([]core.RankedAnswer, len(exact))
	hit := 0
	for i, e := range exact {
		ex[i] = core.RankedAnswer{ID: e.TrajIndex, T: o.corpus[e.TrajIndex], R: e.Result}
		if in[e.TrajIndex] {
			hit++
		}
	}
	qa.n++
	qa.recallSum += float64(hit) / float64(len(exact))
	if len(got) == 0 {
		qa.rankSum += float64(len(exact) + 1)
		return
	}
	// no policy: the skipped fraction is a layer metric, and pricing it here
	// would cost a policy walk per answer
	s, ok := core.ScoreApproxQuality(m, nil, q, approx, ex)
	if !ok {
		return
	}
	qa.rankSum += s.MeanRank
	if s.RatioPositions > 0 {
		qa.ratioSum += s.ApproxRatio
		qa.ratios++
	}
}

func (qa *quality) approxRatio() float64 {
	if qa.ratios == 0 {
		return 1
	}
	return qa.ratioSum / float64(qa.ratios)
}

func (qa *quality) meanRank() float64 {
	if qa.n == 0 {
		return 0
	}
	return qa.rankSum / float64(qa.n)
}

func (qa *quality) recall() float64 {
	if qa.n == 0 {
		return 0
	}
	return qa.recallSum / float64(qa.n)
}
