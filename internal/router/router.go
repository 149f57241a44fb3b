// Package router is the coordinator tier of a simsubd fleet: one front
// door over N remote simsubd nodes that places trajectories with
// consistent hashing, scatter-gathers top-k queries with the engine's
// merge, and propagates its running global k-th-best distance over
// the wire (api.QuerySpec.Bound) so remote shards prune exactly like the
// local shards of a single engine.
//
// The Router implements api.Service, the whole shared /v2 surface, like a
// node's *server.Server and the remote *client.Client, and cmd/simsubrouter
// serves it through the node's own HTTP front end — a client.Client
// pointed at a router is indistinguishable from one pointed at a single
// node, and its rankings are byte-identical to a single engine holding the
// same corpus.
//
// Robustness: per-node requests retry with exponential backoff (the
// client package's opt-in retry), nodes in a replica group serve hedged
// duplicates of slow requests after a configurable latency quantile, and a
// shard group that stays unreachable degrades the answer to a typed
// Partial summary over the reachable corpus instead of failing the query.
package router

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"simsub/api"
	"simsub/client"
	"simsub/internal/engine"
	"simsub/internal/failpoint"
)

var _ api.Service = (*Router)(nil)

// Config sizes a Router. Nodes is required; zero values elsewhere select
// the documented defaults.
type Config struct {
	// Nodes are the backend simsubd base URLs, e.g.
	// ["http://10.0.0.1:8080", "http://10.0.0.2:8080"]. Consecutive runs
	// of Replication nodes form one replica group; every node of a group
	// receives every trajectory placed on the group, so any of them can
	// answer the group's share of a query. The nodes must be dedicated to
	// the router (it owns their trajectory ID space).
	Nodes []string
	// Replication is the replica-group size (default 1). It must divide
	// len(Nodes). With Replication ≥ 2, slow requests are hedged to the
	// next replica and a dead node degrades nothing as long as one
	// replica of its group answers.
	Replication int
	// VNodes is the number of consistent-hash ring points per group
	// (default 64).
	VNodes int
	// Retry is the per-node retry policy (see client.WithRetry); zero
	// takes the client defaults with a tighter 25ms/250ms backoff window.
	Retry client.RetryPolicy
	// HedgeQuantile is the RTT quantile of a node's recent latency window
	// that arms the hedge timer (default 0.95): if the primary replica
	// has not answered within max(HedgeMin, quantile), the request is
	// duplicated to the next replica and the first answer wins.
	HedgeQuantile float64
	// HedgeMin floors the hedge delay (default 10ms), and is the whole
	// delay until a node has latency samples.
	HedgeMin time.Duration
	// NoHedge disables hedged requests.
	NoHedge bool
	// NoBoundPropagation disables the two-wave scatter: by default, when
	// a top-k spec fans out over ≥ 2 groups, the largest group is queried
	// first (the pilot) and its k-th-best distance is shipped to the
	// remaining groups as QuerySpec.Bound, seeding their engines' shared
	// thresholds so remote shards prune like local ones.
	NoBoundPropagation bool
	// NodeTimeout bounds each per-node request attempt (default 15s), so
	// a hung node degrades to a Partial answer instead of pinning the
	// query until the client deadline. Negative disables the bound.
	NodeTimeout time.Duration
	// BreakerThreshold is the run of consecutive degradable failures that
	// trips a node's circuit breaker open (default 5). An open breaker
	// ejects the node without a network attempt until BreakerCooldown
	// passes, then admits a single half-open probe whose outcome closes or
	// re-opens it. When every replica of a group is ejected the group is
	// probed anyway — a request is the only signal that can close a
	// breaker again.
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker ejects its node before
	// the next probe (default 2s).
	BreakerCooldown time.Duration
	// MergeReserve is the slice of a deadline-carrying request's budget the
	// router holds back for its own merge and serialization work when
	// deriving the per-node timeout_ms; a request whose remaining budget is
	// already inside the reserve is rejected with a typed deadline_exceeded
	// before any node is contacted (default 20ms).
	MergeReserve time.Duration
	// HTTPClient overrides the transport shared by the per-node clients
	// (default: the client package's, 16 idle connections per node — see
	// client.WithHTTPClient).
	HTTPClient *http.Client
}

func (c *Config) fill() error {
	if len(c.Nodes) == 0 {
		return errors.New("router: config needs at least one node")
	}
	if c.Replication <= 0 {
		c.Replication = 1
	}
	if len(c.Nodes)%c.Replication != 0 {
		return fmt.Errorf("router: replication %d does not divide the %d configured nodes", c.Replication, len(c.Nodes))
	}
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.HedgeQuantile <= 0 || c.HedgeQuantile > 1 {
		c.HedgeQuantile = 0.95
	}
	if c.HedgeMin <= 0 {
		c.HedgeMin = 10 * time.Millisecond
	}
	if c.NodeTimeout == 0 {
		c.NodeTimeout = 15 * time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	if c.MergeReserve <= 0 {
		c.MergeReserve = 20 * time.Millisecond
	}
	if c.Retry.BaseDelay <= 0 {
		c.Retry.BaseDelay = 25 * time.Millisecond
	}
	if c.Retry.MaxDelay <= 0 {
		c.Retry.MaxDelay = 250 * time.Millisecond
	}
	return nil
}

// node is one backend simsubd as seen by the router.
type node struct {
	base    string
	group   int
	c       *client.Client
	rtt     *latencyTracker
	healthy atomic.Bool
	brk     *breaker

	requests atomic.Int64
	failures atomic.Int64
	hedges   atomic.Int64
	retries  atomic.Int64
}

// observe folds one finished request into the node's telemetry. A typed
// deterministic rejection (invalid_argument, ...) still proves the node is
// reachable, so only degradable failures mark it unhealthy. A canceled
// attempt (a hedge sibling won, the caller gave up) says nothing about the
// node, so it counts as a failure but does not move the circuit breaker.
func (n *node) observe(start time.Time, err error) {
	n.requests.Add(1)
	if err != nil && degradable(err) {
		n.failures.Add(1)
		n.healthy.Store(false)
		if errors.Is(err, context.Canceled) {
			n.brk.recordNeutral()
		} else {
			n.brk.record(true)
		}
		return
	}
	n.rtt.record(time.Since(start))
	n.healthy.Store(true)
	n.brk.record(false)
}

// transportFault evaluates the router/transport failpoint for one per-node
// attempt: an injected error or connection drop is observed like a real
// transport failure (it trips the breaker and triggers failover).
func (n *node) transportFault(ctx context.Context, start time.Time) error {
	err := failpoint.InjectCtx(ctx, fpTransport)
	if err != nil {
		n.observe(start, err)
		return &nodeError{node: n.base, err: err}
	}
	return nil
}

// fpTransport is the failpoint in front of every per-node data-path call.
const fpTransport = "router/transport"

// group is one replica set: Replication nodes holding identical data.
type group struct {
	index    int
	replicas []*node
	rr       atomic.Uint64 // primary-replica rotation
	// globals maps the group's node-local trajectory IDs (dense, assigned
	// by the nodes in load order) to router-global IDs. Guarded by
	// Router.mu.
	globals []int
}

// place locates one global trajectory ID: which group holds it, under
// which node-local ID.
type place struct {
	group int32
	local int32
}

// Router is the coordinator over a simsubd fleet. All methods are safe for
// concurrent use.
type Router struct {
	cfg    Config
	groups []*group
	nodes  []*node // flat, configuration order
	ring   ring

	loadMu     sync.Mutex   // serializes loads: placement must commit in order
	mu         sync.RWMutex // guards placements and group.globals
	placements []place

	queries         atomic.Int64
	hedges          atomic.Int64
	retries         atomic.Int64
	partial         atomic.Int64
	bounds          atomic.Int64
	deadlineRejects atomic.Int64
}

// New builds a Router over the configured fleet. It performs no I/O; the
// first load or query contacts the nodes.
func New(cfg Config) (*Router, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	r := &Router{cfg: cfg}
	nGroups := len(cfg.Nodes) / cfg.Replication
	for gi := 0; gi < nGroups; gi++ {
		g := &group{index: gi}
		for ri := 0; ri < cfg.Replication; ri++ {
			base := cfg.Nodes[gi*cfg.Replication+ri]
			n := &node{base: base, group: gi, rtt: newLatencyTracker(),
				brk: newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown)}
			n.healthy.Store(true)
			retry := cfg.Retry
			retry.OnRetry = func(error) {
				r.retries.Add(1)
				n.retries.Add(1)
			}
			opts := []client.Option{client.WithRetry(retry)}
			if cfg.HTTPClient != nil {
				opts = append(opts, client.WithHTTPClient(cfg.HTTPClient))
			}
			n.c = client.New(base, opts...)
			g.replicas = append(g.replicas, n)
			r.nodes = append(r.nodes, n)
		}
		r.groups = append(r.groups, g)
	}
	r.ring = buildRing(nGroups, cfg.VNodes)
	return r, nil
}

// Len returns the number of trajectories the router has placed.
func (r *Router) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.placements)
}

// groupCounts snapshots the per-group trajectory counts.
func (r *Router) groupCounts() []int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	counts := make([]int, len(r.groups))
	for i, g := range r.groups {
		counts[i] = len(g.globals)
	}
	return counts
}

// toGlobal rewrites a node-local match into router-global ID space.
func (r *Router) toGlobal(g *group, m engine.Match) (engine.Match, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if m.TrajID < 0 || m.TrajID >= len(g.globals) {
		return m, api.Errorf(api.CodeInternal,
			"node of group %d answered with unknown local trajectory id %d (nodes must be dedicated to the router)", g.index, m.TrajID)
	}
	m.TrajID = g.globals[m.TrajID]
	return m, nil
}

// degradable reports whether a per-node failure may be survived by
// degrading to a partial answer (and is worth failing over to a replica):
// timeouts, overload, transport and internal failures are; deterministic
// typed rejections are not — every node would reject identically, so the
// first rejection is the query's answer. A node's deadline_exceeded is in
// the deterministic class: replicas hold the same corpus and similar cost
// estimates, so failing over would burn the rest of the budget on an
// attempt that is equally doomed.
func degradable(err error) bool {
	var abort *abortError
	if errors.As(err, &abort) {
		return false
	}
	var ae *api.Error
	if errors.As(err, &ae) {
		switch ae.Code {
		case api.CodeInvalidArgument, api.CodeNotFound, api.CodeTooLarge, api.CodeDeadlineExceeded:
			return false
		}
	}
	return true
}

// abortError wraps an error that must abort the whole call unchanged (a
// stream consumer's emit error), exempting it from failover and
// degradation.
type abortError struct{ err error }

func (e *abortError) Error() string { return e.err.Error() }

// hedgeDelay is how long the primary replica gets before a hedge launches:
// the node's recent RTT quantile, floored at HedgeMin (which is the whole
// delay until the node has samples).
func (r *Router) hedgeDelay(n *node) time.Duration {
	d := n.rtt.quantile(r.cfg.HedgeQuantile)
	if d < r.cfg.HedgeMin {
		d = r.cfg.HedgeMin
	}
	return d
}

// attemptCtx bounds one per-node attempt by NodeTimeout.
func (r *Router) attemptCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if r.cfg.NodeTimeout > 0 {
		return context.WithTimeout(ctx, r.cfg.NodeTimeout)
	}
	return context.WithCancel(ctx)
}

// groupDo runs fn against g's replicas until one answers: the primary
// (rotating per call) immediately, the next replica as a hedged duplicate
// once the primary's latency-quantile delay expires (when hedging is on),
// and further replicas on failure. The first success wins and cancels the
// rest. Non-degradable errors — deterministic rejections and emit aborts —
// return immediately: no replica would answer differently. Replicas whose
// circuit breaker rejects them are skipped — unless every replica is
// ejected, in which case the primary is probed anyway (a request is the
// only signal that can close a breaker again).
func groupDo[T any](ctx context.Context, r *Router, g *group, hedge bool, fn func(context.Context, *node) (T, error)) (T, error) {
	var zero T
	start := int(g.rr.Add(1)-1) % len(g.replicas)
	order := make([]*node, 0, len(g.replicas))
	for i := range g.replicas {
		order = append(order, g.replicas[(start+i)%len(g.replicas)])
	}
	hedge = hedge && !r.cfg.NoHedge && len(order) > 1

	if !hedge {
		var lastErr error
		attempted := 0
		for forced := false; ; forced = true {
			for _, n := range order {
				if !forced && !n.brk.allow() {
					continue
				}
				attempted++
				actx, cancel := r.attemptCtx(ctx)
				v, err := fn(actx, n)
				cancel()
				if err == nil {
					return v, nil
				}
				lastErr = err
				if !degradable(err) || ctx.Err() != nil {
					return zero, err
				}
			}
			if attempted > 0 || forced {
				break
			}
		}
		return zero, lastErr
	}

	type outcome struct {
		v   T
		err error
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan outcome, len(order))
	launched := 0
	next := 0
	launch := func(n *node, hedged bool) {
		launched++
		if hedged {
			r.hedges.Add(1)
			n.hedges.Add(1)
		}
		go func() {
			actx, acancel := r.attemptCtx(cctx)
			defer acancel()
			v, err := fn(actx, n)
			ch <- outcome{v, err}
		}()
	}
	// launchNext starts the next replica whose breaker admits it, or
	// reports nil when none is left.
	launchNext := func(hedged bool) *node {
		for next < len(order) {
			n := order[next]
			next++
			if n.brk.allow() {
				launch(n, hedged)
				return n
			}
		}
		return nil
	}
	primary := launchNext(false)
	if primary == nil {
		primary = order[0] // every breaker is open: forced probe
		launch(primary, false)
	}
	timer := time.NewTimer(r.hedgeDelay(primary))
	defer timer.Stop()
	var lastErr error
	returned := 0
	for {
		select {
		case <-timer.C:
			launchNext(true)
		case o := <-ch:
			returned++
			if o.err == nil {
				return o.v, nil
			}
			lastErr = o.err
			// an attempt canceled because a sibling won can't reach here
			// (the winner already returned), so a non-degradable error is
			// a real rejection — unless the parent context expired
			if !degradable(o.err) && ctx.Err() == nil {
				return zero, o.err
			}
			if launchNext(false) == nil && returned == launched {
				return zero, lastErr
			}
		case <-ctx.Done():
			return zero, ctx.Err()
		}
	}
}

// Load validates, places and bulk-loads trajectories across the fleet:
// each trajectory is consistent-hashed to a replica group, loaded to every
// replica of that group, and assigned a router-global ID (returned in
// input order, dense in load order — the same IDs a single engine would
// assign). Loads are serialized; a failed replica fails the whole load and
// may leave already-loaded nodes ahead of the router's committed mapping,
// which the error reports.
func (r *Router) Load(ctx context.Context, wts []api.Trajectory) (*api.LoadResponse, error) {
	ts, aerr := api.ToTrajs(wts)
	if aerr != nil {
		return nil, aerr
	}

	r.loadMu.Lock()
	defer r.loadMu.Unlock()

	base := r.Len()
	ids := make([]int, len(wts))
	buckets := make([][]api.Trajectory, len(r.groups))
	newPlaces := make([]place, len(wts))
	counts := r.groupCounts()
	for i := range wts {
		gi := r.ring.locate(ts[i].Digest())
		ids[i] = base + i
		newPlaces[i] = place{group: int32(gi), local: int32(counts[gi] + len(buckets[gi]))}
		buckets[gi] = append(buckets[gi], wts[i])
	}

	// every replica of every affected group loads its bucket; replicas of a
	// group must agree on the assigned local IDs or the fleet is not
	// dedicated to this router
	var wg sync.WaitGroup
	errs := make([][]error, len(r.groups))
	for gi, bucket := range buckets {
		if len(bucket) == 0 {
			continue
		}
		wg.Add(1)
		go func(gi int, bucket []api.Trajectory) {
			defer wg.Done()
			errs[gi] = r.loadGroup(ctx, r.groups[gi], bucket, counts[gi])
		}(gi, bucket)
	}
	wg.Wait()
	// a node refuses a load with overloaded (recovering, draining,
	// shedding) before committing any of it; when every replica refused,
	// no node holds the batch and the refusal is the caller's to retry
	refused, retryMS := true, 0
	for _, rerrs := range errs {
		for _, err := range rerrs {
			var ae *api.Error
			if err == nil || !errors.As(err, &ae) || ae.Code != api.CodeOverloaded {
				refused = false
				continue
			}
			retryMS = max(retryMS, ae.RetryAfterMS)
		}
	}
	for gi, rerrs := range errs {
		err := errors.Join(rerrs...)
		switch {
		case err == nil:
		case refused:
			ae := api.Errorf(api.CodeOverloaded, "loading shard group %d: %v (no node committed the load — retry it)", gi, err)
			ae.RetryAfterMS = retryMS
			return nil, ae
		default:
			return nil, api.Errorf(api.CodeInternal,
				"loading shard group %d: %v (the load was not committed; some nodes may hold it — reconcile or restart the fleet)", gi, err)
		}
	}

	r.mu.Lock()
	r.placements = append(r.placements, newPlaces...)
	for i := range wts {
		// local IDs are dense per group and assigned in bucket order, so
		// this append lands exactly at index newPlaces[i].local
		g := r.groups[newPlaces[i].group]
		g.globals = append(g.globals, base+i)
	}
	r.mu.Unlock()
	return &api.LoadResponse{Loaded: len(ids), IDs: ids, Total: base + len(ids)}, nil
}

// loadGroup ships one group's bucket to all of its replicas and checks
// they assigned the expected dense local IDs; it reports each replica's
// outcome (nil on success).
func (r *Router) loadGroup(ctx context.Context, g *group, bucket []api.Trajectory, wantBase int) []error {
	var wg sync.WaitGroup
	errs := make([]error, len(g.replicas))
	for ri, n := range g.replicas {
		wg.Add(1)
		go func(ri int, n *node) {
			defer wg.Done()
			start := time.Now()
			if ferr := n.transportFault(ctx, start); ferr != nil {
				errs[ri] = ferr
				return
			}
			resp, err := n.c.Load(ctx, bucket)
			n.observe(start, err)
			if err != nil {
				errs[ri] = fmt.Errorf("node %s: %w", n.base, err)
				return
			}
			for j, lid := range resp.IDs {
				if lid != wantBase+j {
					errs[ri] = fmt.Errorf("node %s assigned local id %d, want %d: node is not dedicated to this router", n.base, lid, wantBase+j)
					return
				}
			}
		}(ri, n)
	}
	wg.Wait()
	return errs
}

// GetTrajectory fetches a stored trajectory by router-global ID from the
// group holding it.
func (r *Router) GetTrajectory(ctx context.Context, id int) (*api.TrajectoryRecord, error) {
	r.mu.RLock()
	if id < 0 || id >= len(r.placements) {
		r.mu.RUnlock()
		return nil, api.Errorf(api.CodeNotFound, "no trajectory with id %d", id)
	}
	pl := r.placements[id]
	r.mu.RUnlock()
	g := r.groups[pl.group]
	rec, err := groupDo(ctx, r, g, true, func(ctx context.Context, n *node) (*api.TrajectoryRecord, error) {
		start := time.Now()
		if ferr := n.transportFault(ctx, start); ferr != nil {
			return nil, ferr
		}
		rec, err := n.c.GetTrajectory(ctx, int(pl.local))
		n.observe(start, err)
		return rec, err
	})
	if err != nil {
		return nil, api.FromError(err)
	}
	rec.ID = id
	return rec, nil
}
