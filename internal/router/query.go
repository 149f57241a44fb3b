package router

import (
	"context"
	"errors"
	"sync"
	"time"

	"simsub/api"
	"simsub/internal/core"
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

// validateSpec applies the engine's own wire checks (engine.QueryFromSpec)
// and its ranking-window check against the fleet's store size.
// Measure/algorithm names are validated by the nodes — their rejections
// are deterministic, so the first one is the spec's answer.
func (r *Router) validateSpec(spec api.QuerySpec) *api.Error {
	q, aerr := engine.QueryFromSpec(spec)
	if aerr != nil {
		return aerr
	}
	return q.ValidatePage(r.Len())
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

// groupAnswer is one replica group's share of a scatter: its top-k list in
// router-global ID space, whether it came from the node's cache, and the
// node's degradation marker.
type groupAnswer struct {
	ms     []engine.Match
	cached bool
	deg    *api.Degraded
}

// queryGroup answers one wave's spec against one replica group (count is
// the group's holdings) and rewrites the matches into router-global ID
// space. With a nil forward it is the unary call: hedged, with the
// request's remaining deadline budget (shaved by MergeReserve) riding to
// the node as timeout_ms, so the node's admission control can reject a
// doomed query with a typed error instead of burning a slot on it. With a
// forward it streams: failover but no hedging — a duplicated stream would
// duplicate provisional matches — each provisional match handed to forward
// in global ID space, and the deadline propagated by the client, which
// ships the attempt context's (shaved) deadline as timeout_ms itself.
func (r *Router) queryGroup(ctx context.Context, g *group, spec api.QuerySpec, bound *float64, count int, forward func(engine.Match) error) (groupAnswer, error) {
	spec = nodeSpec(spec, bound, count)
	return groupDo(ctx, r, g, forward == nil, func(ctx context.Context, n *node) (groupAnswer, error) {
		start := time.Now()
		if ferr := n.transportFault(ctx, start); ferr != nil {
			return groupAnswer{}, ferr
		}
		var res api.QueryResult // the node's answer, whichever way it came
		var err error
		if forward == nil {
			var resp *api.QueryResponse
			resp, err = n.c.Query(ctx, api.Query{Specs: []api.QuerySpec{spec}, TimeoutMS: r.budgetMS(ctx)})
			switch {
			case err != nil:
			case len(resp.Results) != 1:
				err = api.Errorf(api.CodeInternal, "node answered %d results for 1 spec", len(resp.Results))
			case resp.Results[0].Error != nil:
				err = resp.Results[0].Error
			default:
				res = resp.Results[0]
			}
		} else {
			var sum *api.StreamSummary
			sum, err = n.c.QueryStream(ctx, spec, func(wm api.Match) error {
				gm, terr := r.toGlobal(g, engine.MatchFromAPI(wm))
				if terr != nil {
					return terr
				}
				return forward(gm)
			})
			if err == nil {
				res = api.QueryResult{Matches: sum.Matches, Cached: sum.Cached, Degraded: sum.Degraded}
			}
		}
		n.observe(start, err)
		if err != nil {
			return groupAnswer{}, &nodeError{node: n.base, err: err}
		}
		a := groupAnswer{ms: make([]engine.Match, len(res.Matches)), cached: res.Cached, deg: res.Degraded}
		for i, wm := range res.Matches {
			gm, terr := r.toGlobal(g, engine.MatchFromAPI(wm))
			if terr != nil {
				return groupAnswer{}, &nodeError{node: n.base, err: terr}
			}
			a.ms[i] = gm
		}
		return a, nil
	})
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

// add folds one group's outcome into the gather. A degradable failure
// becomes a recorded group failure (Partial degradation, decided by
// finishGather); any other error — a deterministic node rejection (bad
// measure name, ...), an emit abort — is returned: it is the spec's answer.
func (ga *gather) add(g *group, a groupAnswer, err error) error {
	switch {
	case err == nil:
		ga.lists = append(ga.lists, a.ms)
		ga.cached = ga.cached && a.cached
		if ga.degraded == nil {
			// the first marker wins — it names the algorithm substitution,
			// which every degrading node performs identically
			ga.degraded = a.deg
		}
	case !degradable(err):
		return err
	default:
		ga.failures = append(ga.failures, failureOf(g, err))
		ga.cached = false
	}
	return nil
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

// query answers one spec by scatter-gather over every non-empty group:
// per-group top-k lists merged with engine.MergeTopK, then global distinct
// collapsing and paging, so the ranking is byte-identical to a single
// engine holding the same corpus in the same load order. Unreachable shard
// groups degrade to a Partial summary instead of failing the spec.
//
// With ≥ 2 active groups (and propagation on) the scatter runs two waves:
// the largest group first — the pilot — then the rest carrying the pilot's
// k-th-best distance as their bound, so remote engines seed their shared
// thresholds with a near-final global k-th-best instead of discovering it
// from scratch. Since engine pruning is strict against the bound and the
// pilot's k-th best upper-bounds the final global k-th best, the merged
// ranking is byte-identical to an unbounded scatter.
//
// A nil emit is the unary scatter. With an emit the groups stream: their
// provisional matches pass the router's global top-k gate to emit
// (single-goroutine, gate entry order), Emitted counts them, and an emit
// error aborts the scatter and is returned unchanged.
func (r *Router) query(ctx context.Context, spec api.QuerySpec, emit func(api.Match) error) (*api.StreamSummary, error) {
	start := time.Now()
	spec = spec.WithDefaults()
	if aerr := r.validateSpec(spec); aerr != nil {
		return nil, aerr
	}
	if aerr := r.checkBudget(ctx); aerr != nil {
		return nil, aerr
	}
	r.queries.Add(1)

	counts := r.groupCounts()
	var active []int
	for gi, c := range counts {
		if c > 0 {
			active = append(active, gi)
		}
	}
	g := gather{cached: true, active: len(active)}
	emitted := 0
	var forward func(engine.Match) error
	if emit != nil {
		// the router's running global top-k decides which per-node
		// provisional matches are worth forwarding to the caller. It only
		// gates provisional emission — the final ranking is merged from the
		// per-group answers, so gate state never affects correctness.
		gate := core.NewCollector(spec.K)
		forward = func(gm engine.Match) error {
			if gate.Offer(core.Match{TrajIndex: gm.TrajID, Result: gm.Result}) {
				emitted++
				if err := emit(engine.MatchToAPI(gm)); err != nil {
					return &abortError{err: err}
				}
			}
			return nil
		}
	}

	bound := spec.Bound
	rest := active
	if !r.cfg.NoBoundPropagation && len(active) >= 2 {
		pi := pilotOf(active, counts)
		gi := active[pi]
		rest = append(append(make([]int, 0, len(active)-1), active[:pi]...), active[pi+1:]...)
		a, err := r.queryGroup(ctx, r.groups[gi], spec, bound, counts[gi], forward)
		if err := g.add(r.groups[gi], a, err); err != nil {
			return nil, unwrapAbort(err)
		}
		if len(a.ms) >= spec.K {
			bound = tighten(bound, a.ms[spec.K-1].Result.Dist)
		}
	}
	if bound != nil && len(rest) > 0 {
		r.bounds.Add(1)
	}

	// the remaining groups run concurrently; when streaming, their
	// provisional matches funnel through one channel so the caller's emit
	// stays single-goroutine
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		ch     chan engine.Match
		funnel func(engine.Match) error
	)
	if forward != nil {
		// 64: deep enough that a group's stream rarely stalls on the
		// caller's emit, small enough to bound what an abort discards
		ch = make(chan engine.Match, 64)
		funnel = func(gm engine.Match) error {
			select {
			case ch <- gm:
				return nil
			case <-cctx.Done():
				return cctx.Err()
			}
		}
	}
	type groupOut struct {
		a   groupAnswer
		err error
	}
	outs := make([]groupOut, len(rest))
	var wg sync.WaitGroup
	for i, gi := range rest {
		wg.Add(1)
		go func(i, gi int) {
			defer wg.Done()
			a, err := r.queryGroup(cctx, r.groups[gi], spec, bound, counts[gi], funnel)
			outs[i] = groupOut{a, err}
		}(i, gi)
	}
	if forward == nil {
		wg.Wait()
	} else {
		go func() { wg.Wait(); close(ch) }()
		var emitErr error
		for gm := range ch {
			if emitErr != nil {
				continue // drain so the cancelled group streams can exit
			}
			if err := forward(gm); err != nil {
				emitErr = unwrapAbort(err)
				cancel()
			}
		}
		if emitErr != nil {
			return nil, emitErr
		}
	}
	for i, o := range outs {
		if err := g.add(r.groups[rest[i]], o.a, o.err); err != nil {
			return nil, unwrapAbort(err)
		}
	}

	partial, aerr := r.finishGather(g)
	if aerr != nil {
		return nil, aerr
	}
	full := engine.MergeTopK(g.lists, spec.K)
	if spec.Distinct {
		full = r.collapseDistinct(ctx, full)
	}
	page := engine.PageOf(full, spec.Offset, spec.Limit)
	return &api.StreamSummary{
		Matches:  engine.MatchesToAPI(page),
		Total:    len(full),
		Cached:   g.cached,
		Emitted:  emitted,
		Partial:  partial,
		Degraded: g.degraded,
		TookMS:   api.TookMS(start),
	}, nil
}

// unwrapAbort restores a stream consumer's emit error to its original
// value; other errors pass through as typed API errors.
func unwrapAbort(err error) error {
	var abort *abortError
	if errors.As(err, &abort) {
		return abort.err
	}
	return api.FromError(err)
}

// QueryOne answers a single spec (see query); failures land in the
// result's Error field, mirroring one lane of a batch.
func (r *Router) QueryOne(ctx context.Context, spec api.QuerySpec) api.QueryResult {
	start := time.Now()
	sum, err := r.query(ctx, spec, nil)
	if err != nil {
		return api.QueryResult{Error: api.FromError(err), TookMS: api.TookMS(start)}
	}
	return api.QueryResult{
		Matches:  sum.Matches,
		Total:    sum.Total,
		Cached:   sum.Cached,
		Partial:  sum.Partial,
		Degraded: sum.Degraded,
		TookMS:   sum.TookMS,
	}
}

// Query implements api.Searcher: the batch's specs scatter concurrently.
func (r *Router) Query(ctx context.Context, req api.Query) (*api.QueryResponse, error) {
	return api.QueryBatch(ctx, req, r.QueryOne)
}

// QueryStream implements api.StreamSearcher across the fleet (see query):
// provisional matches stream to emit, and the summary carries the
// authoritative merged ranking — identical to QueryOne's answer for the
// same spec.
func (r *Router) QueryStream(ctx context.Context, spec api.QuerySpec, emit func(api.Match) error) (*api.StreamSummary, error) {
	return r.query(ctx, spec, emit)
}

// collapseDistinct applies the engine's Distinct collapse
// (engine.CollapseDistinct) at the global level: duplicates may live on
// different groups, so no node can collapse them alone. The referenced
// trajectories are fetched from their groups once each, concurrently; a
// match whose trajectory cannot be fetched is kept.
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

	return engine.CollapseDistinct(ms, func(id int) (traj.Trajectory, bool) {
		t := need[id]
		return t, t.Len() > 0
	})
}
