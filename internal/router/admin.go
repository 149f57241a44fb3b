package router

import (
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"simsub/api"
	"simsub/client"
	"simsub/internal/rl"
	"simsub/internal/server"
	"simsub/internal/t2vec"
)

// eachNode runs call against every node of the fleet concurrently, each
// attempt bounded by NodeTimeout and folded into the node's telemetry, and
// returns the outcomes in configuration order. call takes the client first
// so the client's method expressions — (*client.Client).Stats — fit as is.
func eachNode[T any](ctx context.Context, r *Router, call func(*client.Client, context.Context) (T, error)) ([]T, []error) {
	vals := make([]T, len(r.nodes))
	errs := make([]error, len(r.nodes))
	var wg sync.WaitGroup
	for i, n := range r.nodes {
		wg.Add(1)
		go func(i int, n *node) {
			defer wg.Done()
			actx, cancel := r.attemptCtx(ctx)
			defer cancel()
			start := time.Now()
			vals[i], errs[i] = call(n.c, actx)
			n.observe(start, errs[i])
		}(i, n)
	}
	wg.Wait()
	return vals, errs
}

// inlineFile rewrites a swap request that names a Path into its inline
// form, in place, leaving every other field as the caller sent it: the
// file is read and parsed once here, against the ROUTER's filesystem
// (server.ReadArtifactFile, so its failures are classified as on a node),
// and shipped to the nodes as base64 bytes, since the nodes' local
// filesystems are not the operator's.
func inlineFile[T any](kind string, path, b64 *string, parse func(io.Reader) (T, error)) *api.Error {
	if *path == "" {
		return nil
	}
	raw, _, aerr := server.ReadArtifactFile(kind, *path, parse)
	if aerr != nil {
		return aerr
	}
	*path, *b64 = "", base64.StdEncoding.EncodeToString(raw)
	return nil
}

// broadcastSwap sends a serving-artifact swap (kind "policy" or "encoder")
// to every node. The swap is all-or-nothing in intent but not atomic
// across the fleet: every node must accept it, and a mixed outcome is
// reported as an error naming the nodes that rejected it (the accepted
// nodes keep serving the new artifact — re-issue the swap to converge). On
// success every node's fingerprint is verified to agree.
func broadcastSwap[T any](ctx context.Context, r *Router, kind string, fingerprint func(T) string, swap func(*client.Client, context.Context) (T, error)) (T, error) {
	infos, errs := eachNode(ctx, r, swap)
	for i, err := range errs {
		if err != nil {
			errs[i] = fmt.Errorf("node %s: %w", r.nodes[i].base, err)
		}
	}
	var zero T
	if err := errors.Join(errs...); err != nil {
		return zero, api.Errorf(api.CodeInternal, "%s broadcast incomplete, the fleet may be serving a mix — re-issue the swap: %v", kind, err)
	}
	for i, info := range infos[1:] {
		if fingerprint(info) != fingerprint(infos[0]) {
			return zero, api.Errorf(api.CodeInternal,
				"fleet diverged after swap: node %s reports %s fingerprint %s, node %s reports %s",
				r.nodes[0].base, kind, fingerprint(infos[0]), r.nodes[i+1].base, fingerprint(info))
		}
	}
	return infos[0], nil
}

// readAgreed reports the fleet's registered serving artifact (kind
// "policy" or "encoder"). Every reachable node must agree on the
// fingerprint; a divergent fleet is an internal error — it would answer
// the same query inconsistently per shard group.
func readAgreed[T any](ctx context.Context, r *Router, kind string, fingerprint func(T) string, read func(*client.Client, context.Context) (T, error)) (T, error) {
	infos, errs := eachNode(ctx, r, read)
	first := -1
	for i, err := range errs {
		switch {
		case err != nil:
		case first < 0:
			first = i
		case fingerprint(infos[i]) != fingerprint(infos[first]):
			var zero T
			return zero, api.Errorf(api.CodeInternal,
				"fleet %s fingerprints diverged: node %s reports %s, node %s reports %s — re-issue the swap",
				kind, r.nodes[first].base, fingerprint(infos[first]), r.nodes[i].base, fingerprint(infos[i]))
		}
	}
	if first >= 0 {
		return infos[first], nil
	}
	// no node answered: propagate the first rejection (usually not_found:
	// nothing registered)
	var zero T
	return zero, api.FromError(errs[0])
}

func policyFingerprint(i *api.PolicyInfo) string   { return i.Fingerprint }
func encoderFingerprint(i *api.EncoderInfo) string { return i.Fingerprint }

// SwapPolicy broadcasts a learned-search policy swap to every node of the
// fleet (see broadcastSwap); a Path request is resolved here (inlineFile).
func (r *Router) SwapPolicy(ctx context.Context, req api.PolicySwapRequest) (*api.PolicyInfo, error) {
	if aerr := req.Validate(); aerr != nil {
		return nil, aerr
	}
	if aerr := inlineFile("policy", &req.Path, &req.PolicyB64, rl.Load); aerr != nil {
		return nil, aerr
	}
	return broadcastSwap(ctx, r, "policy", policyFingerprint, func(c *client.Client, ctx context.Context) (*api.PolicyInfo, error) {
		return c.SwapPolicy(ctx, req)
	})
}

// Policy reports the fleet's registered policy (see readAgreed).
func (r *Router) Policy(ctx context.Context) (*api.PolicyInfo, error) {
	return readAgreed(ctx, r, "policy", policyFingerprint, (*client.Client).Policy)
}

// SwapEncoder broadcasts a t2vec encoder swap to every node of the fleet,
// enabling the "ann" prefilter and the "embed" ranking fleet-wide (see
// broadcastSwap — a diverged fleet would rank the same ann query against
// different embedding spaces per shard group); a Path request is resolved
// here (inlineFile).
func (r *Router) SwapEncoder(ctx context.Context, req api.EncoderSwapRequest) (*api.EncoderInfo, error) {
	if aerr := req.Validate(); aerr != nil {
		return nil, aerr
	}
	if aerr := inlineFile("encoder", &req.Path, &req.EncoderB64, t2vec.Load); aerr != nil {
		return nil, aerr
	}
	return broadcastSwap(ctx, r, "encoder", encoderFingerprint, func(c *client.Client, ctx context.Context) (*api.EncoderInfo, error) {
		return c.SwapEncoder(ctx, req)
	})
}

// Encoder reports the fleet's registered encoder (see readAgreed).
func (r *Router) Encoder(ctx context.Context) (*api.EncoderInfo, error) {
	return readAgreed(ctx, r, "encoder", encoderFingerprint, (*client.Client).Encoder)
}

// Stats aggregates fleet telemetry, best-effort: unreachable nodes
// contribute nothing (and are marked unhealthy) rather than failing the
// call. The Engine section sums the nodes' counters — store-shape fields
// (trajectories, points, shards, workers) over one replica per group to
// avoid double counting, work counters over every node, since replicas do
// independent work. The Router section is the coordinator's own telemetry.
func (r *Router) Stats(ctx context.Context) (*api.StatsResponse, error) {
	// a failed node leaves a nil entry
	stats, _ := eachNode(ctx, r, (*client.Client).Stats)

	var agg api.Stats
	var measures []string
	var recallWeighted float64
	idx := 0
	for _, g := range r.groups {
		shaped := false
		for range g.replicas {
			st := stats[idx]
			idx++
			if st == nil {
				continue
			}
			e := st.Engine
			if !shaped {
				shaped = true
				agg.Points += e.Points
				agg.Shards += e.Shards
				agg.Workers += e.Workers
				agg.CacheEntries += e.CacheEntries
			}
			agg.Queries += e.Queries
			agg.CacheHits += e.CacheHits
			agg.CacheMisses += e.CacheMisses
			agg.InFlight += e.InFlight
			agg.CandidatesSeen += e.CandidatesSeen
			agg.LBSkipped += e.LBSkipped
			agg.EarlyAbandoned += e.EarlyAbandoned
			agg.RLSQueries += e.RLSQueries
			agg.QualitySamples += e.QualitySamples
			agg.ANNQueries += e.ANNQueries
			agg.RecallSamples += e.RecallSamples
			recallWeighted += e.MeanRecall * float64(e.RecallSamples)
			agg.Shed += e.Shed
			agg.ShedExpensive += e.ShedExpensive
			agg.DeadlineRejects += e.DeadlineRejects
			agg.DegradedQueries += e.DegradedQueries
			agg.QueueDepth += e.QueueDepth
			if e.QueueWaitMS > agg.QueueWaitMS {
				agg.QueueWaitMS = e.QueueWaitMS // worst node's smoothed wait
			}
			agg.Shedding = agg.Shedding || e.Shedding
			if !agg.PolicyLoaded && e.PolicyLoaded {
				agg.PolicyLoaded = true
				agg.PolicyName = e.PolicyName
				agg.PolicyFingerprint = e.PolicyFingerprint
				agg.PolicyCompiled = e.PolicyCompiled
				agg.PolicyCompileResolution = e.PolicyCompileResolution
				agg.PolicyCompileDivergence = e.PolicyCompileDivergence
				agg.PolicyCompiledFingerprint = e.PolicyCompiledFingerprint
			}
			if !agg.EncoderLoaded && e.EncoderLoaded {
				agg.EncoderLoaded = true
				agg.EncoderFingerprint = e.EncoderFingerprint
				agg.EncoderDim = e.EncoderDim
				agg.EncoderGrid = e.EncoderGrid
			}
			if measures == nil {
				measures = st.Measures
			}
		}
	}
	if agg.RecallSamples > 0 {
		agg.MeanRecall = recallWeighted / float64(agg.RecallSamples)
	}
	agg.Trajectories = r.Len()

	rs := &api.RouterStats{
		Groups:           len(r.groups),
		Replication:      r.cfg.Replication,
		Trajectories:     r.Len(),
		Queries:          r.queries.Load(),
		Hedges:           r.hedges.Load(),
		Retries:          r.retries.Load(),
		PartialResults:   r.partial.Load(),
		BoundsPropagated: r.bounds.Load(),
		DeadlineRejects:  r.deadlineRejects.Load(),
	}
	for i, n := range r.nodes {
		// Surface each node's self-reported lifecycle state so operators can
		// tell a replaying node (its data paths 503 and the scatter fails
		// over) from a dead one.
		state := "unreachable"
		if st := stats[i]; st != nil {
			state = st.State
			if state == "" {
				state = api.StateReady
			}
		}
		rs.Nodes = append(rs.Nodes, api.NodeStats{
			Node:         n.base,
			Group:        n.group,
			State:        state,
			Healthy:      n.healthy.Load(),
			Requests:     n.requests.Load(),
			Failures:     n.failures.Load(),
			Hedges:       n.hedges.Load(),
			Retries:      n.retries.Load(),
			RTTMeanMS:    api.MS(n.rtt.mean()),
			RTTP50MS:     api.MS(n.rtt.quantile(0.50)),
			RTTP95MS:     api.MS(n.rtt.quantile(0.95)),
			Breaker:      n.brk.stateName(),
			BreakerOpens: n.brk.openCount(),
		})
	}
	return &api.StatsResponse{Engine: agg, Measures: measures, Router: rs}, nil
}

// Health probes every node; it succeeds when every group has at least one
// healthy replica (the fleet can still answer complete queries).
func (r *Router) Health(ctx context.Context) error {
	_, errs := eachNode(ctx, r, func(c *client.Client, ctx context.Context) (struct{}, error) {
		return struct{}{}, c.Health(ctx)
	})
	idx := 0
	for gi, g := range r.groups {
		healthy := false
		for range g.replicas {
			healthy = healthy || errs[idx] == nil
			idx++
		}
		if !healthy {
			return api.Errorf(api.CodeInternal, "shard group %d has no reachable replica", gi)
		}
	}
	return nil
}
