package router

import (
	"context"
	"errors"
	"sync"
	"time"

	"simsub/api"
	"simsub/internal/core"
	"simsub/internal/engine"
)

// streamGroup streams one spec from one replica group (failover, no
// hedging — a duplicated stream would duplicate provisional matches),
// forwarding each provisional match in router-global ID space, and returns
// the group's authoritative top-k list translated to global IDs. Deadline
// budgets propagate through the client, which forwards the attempt
// context's deadline (shaved) as the node-side timeout_ms.
func (r *Router) streamGroup(ctx context.Context, g *group, spec api.QuerySpec, forward func(engine.Match) error) ([]engine.Match, bool, *api.Degraded, error) {
	type answer struct {
		ms     []engine.Match
		cached bool
		deg    *api.Degraded
	}
	a, err := groupDo(ctx, r, g, false, func(ctx context.Context, n *node) (answer, error) {
		start := time.Now()
		if ferr := n.transportFault(ctx, start); ferr != nil {
			return answer{}, ferr
		}
		sum, err := n.c.QueryStream(ctx, spec, func(wm api.Match) error {
			gm, terr := r.toGlobal(g, engine.MatchFromAPI(wm))
			if terr != nil {
				return terr
			}
			return forward(gm)
		})
		n.observe(start, err)
		if err != nil {
			return answer{}, &nodeError{node: n.base, err: err}
		}
		ms := make([]engine.Match, len(sum.Matches))
		for i, wm := range sum.Matches {
			gm, terr := r.toGlobal(g, engine.MatchFromAPI(wm))
			if terr != nil {
				return answer{}, &nodeError{node: n.base, err: terr}
			}
			ms[i] = gm
		}
		return answer{ms: ms, cached: sum.Cached, deg: sum.Degraded}, nil
	})
	return a.ms, a.cached, a.deg, err
}

// QueryStream implements api.StreamSearcher across the fleet: per-node
// provisional matches stream through the router's global top-k gate to the
// caller (single-goroutine, entry order), and the summary carries the
// authoritative merged ranking — identical to QueryOne's answer for the
// same spec. The two-wave bound propagation of the unary path applies: the
// pilot group streams first and its k-th best bounds the rest. An emit
// error aborts the scatter and is returned unchanged; unreachable groups
// degrade to a Partial summary.
func (r *Router) QueryStream(ctx context.Context, spec api.QuerySpec, emit func(api.Match) error) (*api.StreamSummary, error) {
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
	// the router's running global top-k decides which per-node provisional
	// matches are worth forwarding to the caller. It only gates provisional
	// emission — the final ranking is merged from the per-group summaries,
	// so gate state never affects correctness.
	gate := core.NewCollector(spec.K)
	forward := func(gm engine.Match) error {
		if gate.Offer(core.Match{TrajIndex: gm.TrajID, Result: gm.Result}) {
			emitted++
			if err := emit(engine.MatchToAPI(gm)); err != nil {
				return &abortError{err: err}
			}
		}
		return nil
	}
	bound := spec.Bound

	rest := active
	if !r.cfg.NoBoundPropagation && len(active) >= 2 {
		pi := pilotOf(active, counts)
		gi := active[pi]
		rest = make([]int, 0, len(active)-1)
		rest = append(rest, active[:pi]...)
		rest = append(rest, active[pi+1:]...)
		ms, cached, deg, err := r.streamGroup(ctx, r.groups[gi], nodeSpec(spec, bound, counts[gi]), forward)
		switch {
		case err == nil:
			g.lists = append(g.lists, ms)
			g.cached = g.cached && cached
			g.noteDegraded(deg)
			if len(ms) >= spec.K {
				bound = tighten(bound, ms[spec.K-1].Result.Dist)
			}
		case !degradable(err):
			return nil, unwrapAbort(err)
		default:
			g.failures = append(g.failures, failureOf(r.groups[gi], err))
			g.cached = false
		}
	}
	if bound != nil && len(rest) > 0 {
		r.bounds.Add(1)
	}

	// the remaining groups stream concurrently; their provisional matches
	// funnel through one channel so the caller's emit stays
	// single-goroutine
	type groupOut struct {
		ms     []engine.Match
		cached bool
		deg    *api.Degraded
		err    error
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan engine.Match, 64)
	outs := make([]groupOut, len(rest))
	var wg sync.WaitGroup
	for i, gi := range rest {
		wg.Add(1)
		go func(i, gi int) {
			defer wg.Done()
			ms, cached, deg, err := r.streamGroup(cctx, r.groups[gi], nodeSpec(spec, bound, counts[gi]), func(gm engine.Match) error {
				select {
				case ch <- gm:
					return nil
				case <-cctx.Done():
					return cctx.Err()
				}
			})
			outs[i] = groupOut{ms: ms, cached: cached, deg: deg, err: err}
		}(i, gi)
	}
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
	for i, o := range outs {
		switch {
		case o.err == nil:
			g.lists = append(g.lists, o.ms)
			g.cached = g.cached && o.cached
			g.noteDegraded(o.deg)
		case !degradable(o.err):
			return nil, unwrapAbort(o.err)
		default:
			g.failures = append(g.failures, failureOf(r.groups[rest[i]], o.err))
			g.cached = false
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
	page := pageOf(full, spec.Offset, spec.Limit)
	return &api.StreamSummary{
		Matches:  engine.MatchesToAPI(page),
		Total:    len(full),
		Cached:   g.cached,
		Emitted:  emitted,
		Partial:  partial,
		Degraded: g.degraded,
		TookMS:   tookMS(start),
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
