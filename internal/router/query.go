package router

import (
	"context"
	"errors"
	"math"
	"sync"
	"time"

	"simsub/api"
	"simsub/internal/engine"
	"simsub/internal/traj"
)

// nodeError tags a per-node failure with the node that produced it, so a
// degraded answer's Partial summary can name the culprit. errors.As sees
// through it, so typed api.Error classification is unaffected.
type nodeError struct {
	node string
	err  error
}

func (e *nodeError) Error() string { return e.node + ": " + e.err.Error() }
func (e *nodeError) Unwrap() error { return e.err }

// failureOf converts a group's exhausted error into the wire degradation
// record.
func failureOf(g *group, err error) api.NodeFailure {
	node := g.replicas[0].base
	var ne *nodeError
	if errors.As(err, &ne) {
		node, err = ne.node, ne.err
	}
	return api.NodeFailure{Node: node, Err: *api.FromError(err)}
}

// validateSpec applies the router-level wire checks: shape, page, bound
// and the store-size bound on k. Measure/algorithm names are validated by
// the nodes — their rejections are deterministic, so the first one is the
// spec's answer.
func (r *Router) validateSpec(spec api.QuerySpec) *api.Error {
	if _, aerr := spec.Query.ToTraj(); aerr != nil {
		return aerr
	}
	if spec.K <= 0 {
		return api.Errorf(api.CodeInvalidArgument, "k must be positive, got %d", spec.K)
	}
	if n := r.Len(); spec.K > n {
		return api.Errorf(api.CodeInvalidArgument, "k %d exceeds store size %d", spec.K, n)
	}
	if spec.Offset < 0 {
		return api.Errorf(api.CodeInvalidArgument, "offset must be non-negative, got %d", spec.Offset)
	}
	if spec.Limit < 0 {
		return api.Errorf(api.CodeInvalidArgument, "limit must be non-negative, got %d", spec.Limit)
	}
	if spec.Filter != nil {
		if aerr := spec.Filter.Validate(); aerr != nil {
			return aerr
		}
	}
	if aerr := spec.ValidateANN(); aerr != nil {
		return aerr
	}
	return spec.ValidateBound()
}

// checkBudget rejects a deadline-carrying request whose remaining budget
// is already inside the router's merge reserve: no node could answer in
// time, so the typed rejection is immediate instead of a scatter that
// burns fleet slots only to time out anyway.
func (r *Router) checkBudget(ctx context.Context) *api.Error {
	dl, ok := ctx.Deadline()
	if !ok {
		return nil
	}
	if remaining := time.Until(dl); remaining <= r.cfg.MergeReserve {
		r.deadlineRejects.Add(1)
		return api.Errorf(api.CodeDeadlineExceeded,
			"remaining deadline budget %v is inside the router's %v merge reserve — retry with a larger deadline",
			remaining, r.cfg.MergeReserve)
	}
	return nil
}

// budgetMS converts an attempt context's remaining deadline into the
// per-node timeout_ms, shaving the router's MergeReserve so the node's
// budget expires (with a typed error) before the router's own merge window
// does. Zero — no node-side bound — when the request carries no deadline.
func (r *Router) budgetMS(ctx context.Context) int {
	dl, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	ms := int((time.Until(dl) - r.cfg.MergeReserve) / time.Millisecond)
	if ms <= 0 {
		ms = 1 // doomed: let the node reject instantly with its typed error
	}
	return ms
}

// nodeSpec derives the per-node spec of a scatter wave: paging and
// distinct collapsing are global concerns applied at the router after the
// merge, k is clamped to the group's holdings (a node rejects k beyond its
// store), and the wave's running bound rides along as QuerySpec.Bound.
func nodeSpec(spec api.QuerySpec, bound *float64, count int) api.QuerySpec {
	spec.Offset, spec.Limit, spec.Distinct = 0, 0, false
	if spec.K > count {
		spec.K = count
	}
	spec.Bound = bound
	return spec
}

// pilotOf picks the pilot group of a two-wave scatter: the one holding the
// most trajectories (ties to the lowest index), so the first wave's k-th
// best is as tight a bound as a single group can provide.
func pilotOf(active, counts []int) int {
	best := 0
	for i, gi := range active[1:] {
		if counts[gi] > counts[active[best]] {
			best = i + 1
		}
	}
	return best
}

// tighten folds a freshly observed k-th-best distance into the running
// bound pointer.
func tighten(bound *float64, d float64) *float64 {
	if bound == nil || d < *bound {
		return &d
	}
	return bound
}

// queryGroup answers one spec against one replica group (with hedging and
// failover) and rewrites the matches into router-global ID space. The
// request's remaining deadline budget (shaved by MergeReserve) rides to
// the node as timeout_ms, so the node's admission control can reject a
// doomed query with a typed error instead of burning a slot on it.
func (r *Router) queryGroup(ctx context.Context, g *group, spec api.QuerySpec) ([]engine.Match, bool, *api.Degraded, error) {
	type answer struct {
		ms     []engine.Match
		cached bool
		deg    *api.Degraded
	}
	a, err := groupDo(ctx, r, g, true, func(ctx context.Context, n *node) (answer, error) {
		start := time.Now()
		if ferr := n.transportFault(ctx, start); ferr != nil {
			return answer{}, ferr
		}
		resp, err := n.c.Query(ctx, api.Query{Specs: []api.QuerySpec{spec}, TimeoutMS: r.budgetMS(ctx)})
		if err == nil && len(resp.Results) != 1 {
			err = api.Errorf(api.CodeInternal, "node answered %d results for 1 spec", len(resp.Results))
		}
		if err == nil && resp.Results[0].Error != nil {
			err = resp.Results[0].Error
		}
		n.observe(start, err)
		if err != nil {
			return answer{}, &nodeError{node: n.base, err: err}
		}
		res := resp.Results[0]
		ms := make([]engine.Match, len(res.Matches))
		for i, wm := range res.Matches {
			gm, terr := r.toGlobal(g, engine.MatchFromAPI(wm))
			if terr != nil {
				return answer{}, &nodeError{node: n.base, err: terr}
			}
			ms[i] = gm
		}
		return answer{ms: ms, cached: res.Cached, deg: res.Degraded}, nil
	})
	return a.ms, a.cached, a.deg, err
}

// gather is the outcome of one scatter: the per-group top-k lists (global
// IDs, ascending), whether every list came from a node cache, which groups
// lost all replicas, and whether any node answered with a degraded
// (fallback-algorithm) ranking.
type gather struct {
	lists    [][]engine.Match
	cached   bool
	active   int
	failures []api.NodeFailure
	degraded *api.Degraded
}

// noteDegraded folds one group's degradation marker into the gather (the
// first marker wins — it names the algorithm substitution, which every
// degrading node performs identically).
func (g *gather) noteDegraded(deg *api.Degraded) {
	if g.degraded == nil {
		g.degraded = deg
	}
}

// scatterGather fans one spec out over every non-empty group and collects
// the per-group rankings. With ≥ 2 active groups (and propagation on), it
// runs two waves: the largest group first — the pilot — then the rest
// carrying the pilot's k-th-best distance as their bound, so remote
// engines seed their shared thresholds with a near-final global k-th-best
// instead of discovering it from scratch. Since engine pruning is strict
// against the bound and the pilot's k-th best upper-bounds the final
// global k-th best, the merged ranking is byte-identical to an unbounded
// scatter. A non-degradable node rejection (bad measure name, ...) returns
// immediately as the spec's error; degradable failures become Partial
// degradation, handled by the caller.
func (r *Router) scatterGather(ctx context.Context, spec api.QuerySpec) (gather, *api.Error) {
	counts := r.groupCounts()
	var active []int
	for gi, c := range counts {
		if c > 0 {
			active = append(active, gi)
		}
	}
	out := gather{cached: true, active: len(active)}
	bound := spec.Bound

	rest := active
	if !r.cfg.NoBoundPropagation && len(active) >= 2 {
		pi := pilotOf(active, counts)
		gi := active[pi]
		rest = make([]int, 0, len(active)-1)
		rest = append(rest, active[:pi]...)
		rest = append(rest, active[pi+1:]...)
		g := r.groups[gi]
		ms, cached, deg, err := r.queryGroup(ctx, g, nodeSpec(spec, bound, counts[gi]))
		switch {
		case err == nil:
			out.lists = append(out.lists, ms)
			out.cached = out.cached && cached
			out.noteDegraded(deg)
			if len(ms) >= spec.K {
				bound = tighten(bound, ms[spec.K-1].Result.Dist)
			}
		case !degradable(err):
			return gather{}, api.FromError(err)
		default:
			out.failures = append(out.failures, failureOf(g, err))
			out.cached = false
		}
	}
	if bound != nil && len(rest) > 0 {
		r.bounds.Add(1)
	}

	type groupOut struct {
		ms     []engine.Match
		cached bool
		deg    *api.Degraded
		err    error
	}
	outs := make([]groupOut, len(rest))
	var wg sync.WaitGroup
	for i, gi := range rest {
		wg.Add(1)
		go func(i, gi int) {
			defer wg.Done()
			ms, cached, deg, err := r.queryGroup(ctx, r.groups[gi], nodeSpec(spec, bound, counts[gi]))
			outs[i] = groupOut{ms: ms, cached: cached, deg: deg, err: err}
		}(i, gi)
	}
	wg.Wait()
	for i, o := range outs {
		switch {
		case o.err == nil:
			out.lists = append(out.lists, o.ms)
			out.cached = out.cached && o.cached
			out.noteDegraded(o.deg)
		case !degradable(o.err):
			return gather{}, api.FromError(o.err)
		default:
			out.failures = append(out.failures, failureOf(r.groups[rest[i]], o.err))
			out.cached = false
		}
	}
	return out, nil
}

// finishGather turns a scatter's outcome into the spec's degradation
// state: all groups lost is a hard error, some lost is a Partial summary.
func (r *Router) finishGather(g gather) (*api.Partial, *api.Error) {
	if len(g.failures) == 0 {
		return nil, nil
	}
	if len(g.failures) == g.active {
		f := g.failures[0]
		ae := api.Errorf(f.Err.Code, "every shard group failed; first: %s: %s", f.Node, f.Err.Message)
		// keep the nodes' back-off guidance: the caller should wait for
		// the slowest-draining group before retrying the whole scatter
		for _, fl := range g.failures {
			if fl.Err.RetryAfterMS > ae.RetryAfterMS {
				ae.RetryAfterMS = fl.Err.RetryAfterMS
			}
		}
		return nil, ae
	}
	r.partial.Add(1)
	return &api.Partial{NodesTotal: g.active, NodesFailed: len(g.failures), Failures: g.failures}, nil
}

// QueryOne answers a single spec by scatter-gather: per-group top-k lists
// merged with engine.MergeTopK, then global distinct collapsing and
// paging. The ranking is byte-identical to a single engine holding the
// same corpus in the same load order. Failures land in the result's Error
// field; unreachable shard groups degrade to a Partial summary instead.
func (r *Router) QueryOne(ctx context.Context, spec api.QuerySpec) api.QueryResult {
	start := time.Now()
	spec = spec.WithDefaults()
	if aerr := r.validateSpec(spec); aerr != nil {
		return api.QueryResult{Error: aerr, TookMS: tookMS(start)}
	}
	if aerr := r.checkBudget(ctx); aerr != nil {
		return api.QueryResult{Error: aerr, TookMS: tookMS(start)}
	}
	r.queries.Add(1)
	g, aerr := r.scatterGather(ctx, spec)
	if aerr != nil {
		return api.QueryResult{Error: aerr, TookMS: tookMS(start)}
	}
	partial, aerr := r.finishGather(g)
	if aerr != nil {
		return api.QueryResult{Error: aerr, TookMS: tookMS(start)}
	}
	full := engine.MergeTopK(g.lists, spec.K)
	if spec.Distinct {
		full = r.collapseDistinct(ctx, full)
	}
	page := pageOf(full, spec.Offset, spec.Limit)
	return api.QueryResult{
		Matches:  engine.MatchesToAPI(page),
		Total:    len(full),
		Cached:   g.cached,
		Partial:  partial,
		Degraded: g.degraded,
		TookMS:   tookMS(start),
	}
}

// Query implements api.Searcher: the batch's specs scatter concurrently;
// Results[i] answers Specs[i], a failed spec carries its typed error
// without failing the batch, and TimeoutMS bounds the whole batch.
func (r *Router) Query(ctx context.Context, req api.Query) (*api.QueryResponse, error) {
	if len(req.Specs) == 0 {
		return nil, api.Errorf(api.CodeInvalidArgument, "query batch has no specs")
	}
	ctx, cancel := msContext(ctx, req.TimeoutMS)
	defer cancel()
	start := time.Now()
	results := make([]api.QueryResult, len(req.Specs))
	var wg sync.WaitGroup
	for i, spec := range req.Specs {
		wg.Add(1)
		go func(i int, spec api.QuerySpec) {
			defer wg.Done()
			results[i] = r.QueryOne(ctx, spec)
		}(i, spec)
	}
	wg.Wait()
	return &api.QueryResponse{Results: results, TookMS: tookMS(start)}, nil
}

// collapseDistinct keeps the best-ranked match per distinct matched
// subtrajectory content, mirroring the engine's Distinct semantics at the
// global level (duplicates may live on different groups, so no node can
// collapse them alone). The referenced trajectories are fetched from their
// groups once each, concurrently; a match whose trajectory cannot be
// fetched is kept, like the engine keeps matches it cannot resolve.
func (r *Router) collapseDistinct(ctx context.Context, ms []engine.Match) []engine.Match {
	if len(ms) < 2 {
		return ms
	}
	need := make(map[int]traj.Trajectory, len(ms))
	ids := make([]int, 0, len(ms))
	for _, m := range ms {
		if _, ok := need[m.TrajID]; !ok {
			need[m.TrajID] = traj.Trajectory{}
			ids = append(ids, m.TrajID)
		}
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rec, err := r.GetTrajectory(ctx, id)
			if err != nil {
				return
			}
			t, aerr := rec.Trajectory.ToTraj()
			if aerr != nil {
				return
			}
			mu.Lock()
			need[id] = t
			mu.Unlock()
		}(id)
	}
	wg.Wait()

	seen := make(map[uint64][]traj.Trajectory, len(ms))
	out := ms[:0]
next:
	for _, m := range ms {
		t := need[m.TrajID]
		if t.Len() == 0 {
			out = append(out, m)
			continue
		}
		sub := t.Sub(m.Result.Interval.I, m.Result.Interval.J)
		d := placementKey(sub)
		for _, prev := range seen[d] {
			if prev.Equal(sub) {
				continue next
			}
		}
		seen[d] = append(seen[d], sub)
		out = append(out, m)
	}
	return out
}

// pageOf selects the ranking window [offset, offset+limit) (limit 0 = to
// the end), exactly like the engine's paging.
func pageOf(full []engine.Match, offset, limit int) []engine.Match {
	if offset >= len(full) {
		return nil
	}
	out := full[offset:]
	if limit > 0 && limit < len(out) {
		out = out[:limit]
	}
	return out
}

func tookMS(start time.Time) float64 {
	return float64(time.Since(start).Microseconds()) / 1000
}

// msContext tightens ctx by ms milliseconds when positive, clamped so an
// absurd value cannot overflow into an already-expired deadline.
func msContext(ctx context.Context, ms int) (context.Context, context.CancelFunc) {
	if ms <= 0 {
		return context.WithCancel(ctx)
	}
	maxMS := int(math.MaxInt64 / int64(time.Millisecond))
	if ms > maxMS {
		ms = maxMS
	}
	return context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
}
