package engine

import (
	"context"
	"time"

	"simsub/api"
	"simsub/internal/core"
	"simsub/internal/geo"
	"simsub/internal/sim"
	"simsub/internal/traj"
)

// This file adapts the engine onto the api package's versioned wire types:
// *Engine satisfies api.Searcher (batched queries) and api.StreamSearcher
// (incremental match delivery), the same interfaces the HTTP client
// implements, so in-process and remote search are interchangeable.

var (
	_ api.Searcher       = (*Engine)(nil)
	_ api.StreamSearcher = (*Engine)(nil)
)

// QueryFromSpec validates a wire spec and converts it into an engine
// query, filling in the default measure and algorithm names.
func QueryFromSpec(spec api.QuerySpec) (Query, *api.Error) {
	spec = spec.WithDefaults()
	t, aerr := spec.Query.ToTraj()
	if aerr != nil {
		return Query{}, aerr
	}
	var filter *geo.Rect
	if spec.Filter != nil {
		if aerr := spec.Filter.Validate(); aerr != nil {
			return Query{}, aerr
		}
		r := spec.Filter.Geo()
		filter = &r
	}
	if aerr := spec.ValidateBound(); aerr != nil {
		return Query{}, aerr
	}
	if aerr := spec.ValidateANN(); aerr != nil {
		return Query{}, aerr
	}
	var ann *ANNParams
	if spec.ANN != nil {
		ann = &ANNParams{Candidates: spec.ANN.Candidates, Probes: spec.ANN.Probes}
	}
	return Query{
		Q:         t,
		K:         spec.K,
		Measure:   spec.Measure,
		Algorithm: spec.Algorithm,
		Params: Params{
			EDREps:   spec.EDREps,
			POSDelay: spec.POSDelay,
		},
		Bound:         spec.Bound,
		ANN:           ann,
		Filter:        filter,
		AllowDegraded: spec.AllowDegraded,
		Distinct:      spec.Distinct,
		Offset:        spec.Offset,
		Limit:         spec.Limit,
	}, nil
}

// MatchToAPI converts an engine match to wire form.
func MatchToAPI(m Match) api.Match {
	return api.Match{
		TrajID:   m.TrajID,
		Start:    m.Result.Interval.I,
		End:      m.Result.Interval.J,
		Dist:     m.Result.Dist,
		Sim:      sim.Sim(m.Result.Dist),
		Explored: m.Result.Explored,
	}
}

// MatchFromAPI converts a wire match back to engine form (the inverse of
// MatchToAPI up to the derived Sim field). The distributed coordinator uses
// it to run per-node wire rankings through MergeTopK.
func MatchFromAPI(m api.Match) Match {
	return Match{
		TrajID: m.TrajID,
		Result: core.Result{
			Interval: traj.Interval{I: m.Start, J: m.End},
			Dist:     m.Dist,
			Explored: m.Explored,
		},
	}
}

// MatchesToAPI converts a ranking to wire form (never nil, so JSON
// renders an empty array rather than null).
func MatchesToAPI(ms []Match) []api.Match {
	out := make([]api.Match, len(ms))
	for i, m := range ms {
		out[i] = MatchToAPI(m)
	}
	return out
}

// QueryOne answers a single spec; failures land in the result's Error
// field as typed errors, mirroring one lane of a batch.
func (e *Engine) QueryOne(ctx context.Context, spec api.QuerySpec) api.QueryResult {
	start := time.Now()
	q, aerr := QueryFromSpec(spec)
	if aerr != nil {
		return api.QueryResult{Error: aerr, TookMS: api.TookMS(start)}
	}
	full, page, cached, deg, err := e.topK(ctx, q, nil)
	if err != nil {
		return api.QueryResult{Error: api.FromError(err), TookMS: api.TookMS(start)}
	}
	return api.QueryResult{
		Matches:  MatchesToAPI(page),
		Total:    len(full),
		Cached:   cached,
		Degraded: deg,
		TookMS:   api.TookMS(start),
	}
}

// Query implements api.Searcher: the batch's specs are answered
// concurrently — the per-shard tasks of all specs share the engine's
// bounded worker pool, so a big batch amortizes dispatch without
// overcommitting the machine. Results[i] answers Specs[i]; a failed spec
// carries its typed error without failing the batch. The whole batch is
// bounded by TimeoutMS when positive.
func (e *Engine) Query(ctx context.Context, req api.Query) (*api.QueryResponse, error) {
	return api.QueryBatch(ctx, req, e.QueryOne)
}

// QueryStream implements api.StreamSearcher: emit receives every
// provisional match that enters the running top-k (always on the calling
// goroutine), and the returned summary carries the authoritative final
// ranking. An emit error aborts the search and is returned.
func (e *Engine) QueryStream(ctx context.Context, spec api.QuerySpec, emit func(api.Match) error) (*api.StreamSummary, error) {
	start := time.Now()
	q, aerr := QueryFromSpec(spec)
	if aerr != nil {
		return nil, aerr
	}
	emitted := 0
	full, page, cached, deg, err := e.topK(ctx, q, func(m Match) error {
		emitted++
		return emit(MatchToAPI(m))
	})
	if err != nil {
		return nil, api.FromError(err)
	}
	return &api.StreamSummary{
		Matches:  MatchesToAPI(page),
		Total:    len(full),
		Cached:   cached,
		Emitted:  emitted,
		Degraded: deg,
		TookMS:   api.TookMS(start),
	}, nil
}
