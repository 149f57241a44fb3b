// Package engine is the query-serving layer over the SimSub algorithms: a
// sharded in-memory trajectory store whose shards each carry their own
// pruning index, searched concurrently through a bounded worker pool with
// context-based cancellation, an LRU cache of top-k answers, and one top-k
// collector per query that every shard's scan feeds and prunes against.
//
// The engine lifts the single-database search of internal/core to a
// concurrent service: trajectories are distributed round-robin over shards
// by global ID, each top-k query fans out one bounded task per shard
// (core's cancellable threshold scan), and the shard workers offer their
// matches straight into the query's core.Collector. A query reads one
// immutable generation of the store and its learned artifacts, however
// many loads and swaps publish while it runs (generation.go). Package
// server exposes it over HTTP.
package engine

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"slices"

	"simsub/api"
	"simsub/internal/core"
	"simsub/internal/failpoint"
	"simsub/internal/geo"
	"simsub/internal/sim"
	"simsub/internal/storage"
	"simsub/internal/traj"
)

// IndexKind selects the per-shard pruning structure. The zero value is the
// R-tree, so a zero Config gets MBR pruning.
type IndexKind int

// Per-shard index kinds. RTree's candidates are the trajectories whose MBR
// intersects the query's (§6.2(4)), so a query that meets no stored MBR
// returns fewer than k matches, possibly none; ScanAll scores every
// trajectory. Either way a ranking does not depend on the shard count or on
// how the corpus was batched into Add calls.
const (
	RTree IndexKind = iota
	ScanAll
)

// Config sizes an Engine. Zero values select the documented defaults.
type Config struct {
	// Shards is the number of store shards (default 4). More shards mean
	// more intra-query parallelism.
	Shards int
	// Workers bounds the number of concurrently executing per-shard search
	// tasks across all in-flight queries (default GOMAXPROCS), and the
	// goroutines that make records searchable: placement (Add, AttachStore,
	// SetEncoder's re-embed) encodes records and builds shard views on up
	// to Workers goroutines of its own. It does not take the query slots:
	// it runs under the load lock, and a streamed query's scanner may hold a
	// slot until its deadline, which would stall every load behind it.
	Workers int
	// CacheSize is the LRU result-cache capacity in entries; 0 disables
	// caching.
	CacheSize int
	// Index is the per-shard pruning structure (default RTree).
	Index IndexKind
	// QualitySample is the fraction of uncached learned-search (RLS /
	// RLS-Skip) queries whose ranking is re-scored against the exact
	// ranking to feed the approximation-ratio / mean-rank / skipped-
	// fraction serving metrics (see Stats). 0 disables sampling; each
	// sample costs one ExactS scan over the query's candidates.
	QualitySample float64
	// RecallSample is the fraction of uncached ANN-prefiltered queries
	// whose ranking is re-scored against the same search over the
	// exhaustive candidate set to feed the recall@k serving metric (see
	// Stats.MeanRecall). 0 disables sampling; each sample costs one full
	// unprefiltered scan.
	RecallSample float64
	// QuerySlots bounds concurrently admitted queries (default Workers).
	// Queries beyond it wait in the admission queue; see admission.go.
	QuerySlots int
	// QueueLimit bounds queries waiting for admission (default
	// 8×QuerySlots with a floor of 64, so a small-core box still absorbs
	// ordinary bursts). A full queue rejects every class with overloaded.
	QueueLimit int
	// QueueTarget is the CoDel target queue wait (default 5ms): when the
	// minimum observed wait stays above it for a whole QueueInterval, the
	// admitter starts shedding expensive-class queries.
	QueueTarget time.Duration
	// QueueInterval is the CoDel control interval (default 100ms).
	QueueInterval time.Duration
	// MergeReserve is the slice of a request's deadline budget held back
	// for merging and serialization (default 10ms): a query whose
	// predicted scan time exceeds the remaining budget minus this reserve
	// is rejected early with deadline_exceeded.
	MergeReserve time.Duration
}

func (c *Config) fill() {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QuerySlots <= 0 {
		c.QuerySlots = c.Workers
	}
	if c.QueueLimit <= 0 {
		if c.QueueLimit = 8 * c.QuerySlots; c.QueueLimit < 64 {
			c.QueueLimit = 64
		}
	}
	if c.QueueTarget <= 0 {
		c.QueueTarget = 5 * time.Millisecond
	}
	if c.QueueInterval <= 0 {
		c.QueueInterval = 100 * time.Millisecond
	}
	if c.MergeReserve <= 0 {
		c.MergeReserve = 10 * time.Millisecond
	}
}

// Params carries per-query overrides for parameterized measures and
// algorithms. The zero value means "use the registered defaults". Setting
// a parameter whose measure/algorithm is not selected is an
// invalid_argument error rather than a silent no-op.
type Params struct {
	// EDREps overrides EDR's matching tolerance (measure "edr").
	EDREps float64
	// POSDelay overrides POS-D's split delay (algorithm "pos-d").
	POSDelay int
}

// Query is one top-k request against the engine's store: the full query
// spec of the v2 API. Q, K, Measure and Algorithm are required (see
// ResolveQuery for names); the remaining fields refine the search.
type Query struct {
	// Q is the query trajectory.
	Q traj.Trajectory
	// K is the ranking size: positive and no larger than the store.
	K int
	// Measure names a registered similarity measure ("dtw", "frechet", ...).
	Measure string
	// Algorithm names a search algorithm of the api registration table
	// (api.AlgorithmNames: "exacts", "pss", "pos", ...).
	Algorithm string
	// Params overrides parameterized measure/algorithm defaults.
	Params Params
	// Bound, when non-nil, is a trusted upper bound on the final k-th-best
	// distance: the engine seeds its shared best-so-far threshold from it,
	// so candidates provably farther than the bound are pruned before the
	// local ranking fills. Pruning stays strict, so matches at exactly the
	// bound survive, but matches strictly beyond it may be omitted from
	// the ranking — callers (the distributed router propagating its
	// running global k-th-best over the wire) must only pass bounds that
	// make such matches irrelevant. Must be finite and non-negative.
	Bound *float64
	// Filter, when non-nil, restricts the search to trajectories whose MBR
	// intersects it. The restriction is pushed down to each shard's
	// pruning index, composing with the similarity pruning.
	Filter *geo.Rect
	// AllowDegraded opts this query into graceful degradation: under
	// overload or an insufficient deadline budget the engine may substitute
	// a cheaper search (ExactS/SizeS → PSS → the compiled RLS-Skip policy)
	// instead of rejecting, and marks the answer's Degraded field. Without
	// the opt-in the engine NEVER silently changes what a ranking means.
	AllowDegraded bool
	// ANN, when non-nil, swaps candidate generation from the exhaustive
	// spatial enumeration to the approximate embedding prefilter: each
	// shard's LSH index proposes its share of the candidate budget by
	// embedding distance and the exact algorithm reranks only those.
	// Retained matches carry distances byte-identical to scoring the same
	// candidates without the prefilter; the only approximation is that a
	// true top-k member absent from the candidate set is missed (the
	// sampled recall telemetry tracks how often — see Config.RecallSample).
	// Requires a registered encoder (SetEncoder).
	ANN *ANNParams
	// Distinct collapses matches whose matched subtrajectories carry
	// identical points (duplicate loads of the same data), keeping the
	// best-ranked representative; the ranking may then hold fewer than K
	// matches.
	Distinct bool
	// Offset skips the first Offset matches of the ranking.
	Offset int
	// Limit caps the returned page size (0 = to the end of the ranking).
	Limit int
}

// ANNParams tunes the approximate candidate prefilter of Query.ANN.
type ANNParams struct {
	// Candidates is the total candidate budget across all shards: the
	// prefilter proposes (about) this many trajectories for exact
	// reranking. Larger budgets raise recall and cost.
	Candidates int
	// Probes is the multi-probe width per LSH table: 1 visits only each
	// table's home bucket, higher values add the nearest perturbed
	// buckets. Larger values raise recall at slightly higher index cost.
	Probes int
}

// Match is one ranked answer: the matched subtrajectory identified by the
// engine-assigned trajectory ID.
type Match struct {
	// TrajID is the global ID the engine assigned at load time.
	TrajID int
	// Result locates the subtrajectory within that trajectory.
	Result core.Result
}

// Stats is a point-in-time snapshot of engine counters, in its wire form.
type Stats = api.Stats

// scan runs the one threshold scan over the shard, pruning against col and
// handing fn every surviving match under its global trajectory ID. With
// annq set (and an index built), the candidates are the index's
// embedding-nearest members rather than the spatial enumeration.
func (s shard) scan(ctx context.Context, alg core.Algorithm, q Query, col *core.Collector, st *core.PruneStats, annq *annQuery, fn func(core.Match) error) error {
	var cands []int
	if annq != nil && s.ann != nil {
		cands = annq.candidates(s.ann)
	}
	return s.db.ScanPrunedSourceCtx(ctx, alg, q.Q, q.Filter, col, st, cands, func(m core.Match) error {
		m.TrajIndex = s.db.Traj(m.TrajIndex).ID
		return fn(m)
	})
}

// Engine is a sharded, concurrent trajectory-search service. All methods
// are safe for concurrent use.
type Engine struct {
	cfg   Config
	sem   chan struct{} // bounded worker pool: one slot per running shard task
	cache *resultCache

	// cur is the published generation: the shard views and the registered
	// artifacts every query reads, through one load; see generation.go.
	cur   atomic.Pointer[generation]
	addMu sync.Mutex                    // serializes writers, so IDs land in shard order
	store atomic.Pointer[storage.Store] // durable write-ahead log; nil = in-memory only

	queries  atomic.Int64
	hits     atomic.Int64
	misses   atomic.Int64
	inflight atomic.Int64

	candSeen  atomic.Int64
	lbSkipped atomic.Int64
	abandoned atomic.Int64

	// overload resilience: the admission controller, the scan-cost model
	// behind early deadline_exceeded rejection, and its counters
	adm             *admitter
	cost            costModel
	deadlineRejects atomic.Int64
	degradedQueries atomic.Int64

	rlsQueries atomic.Int64
	annQueries atomic.Int64
	quality    sampler // approximation ratio, mean rank, skipped fraction
	recall     sampler // recall@k of ann-prefiltered rankings
}

// recordPrune folds one query's pruning counters into the engine totals.
func (e *Engine) recordPrune(st core.PruneStats) {
	e.candSeen.Add(st.Candidates)
	e.lbSkipped.Add(st.LBSkipped)
	e.abandoned.Add(st.Abandoned)
}

// New builds an engine from the config (zero value usable).
func New(cfg Config) *Engine {
	cfg.fill()
	e := &Engine{
		cfg:   cfg,
		sem:   make(chan struct{}, cfg.Workers),
		cache: newResultCache(cfg.CacheSize),
		adm:   newAdmitter(cfg.QuerySlots, cfg.QueueLimit, cfg.QueueTarget, cfg.QueueInterval),
	}
	g := &generation{art: &artifacts{}, shards: make([]shard, cfg.Shards)}
	for i := range g.shards {
		g.shards[i].db = core.NewDatabase(nil, cfg.Index != ScanAll)
	}
	e.cur.Store(g)
	return e
}

// Add bulk-loads trajectories, assigning each a dense global ID (returned
// in input order) and distributing them round-robin over the shards. Each
// affected shard grows its index once per call, at a cost that follows the
// batch and not the store (core.Database.Append). Loading invalidates
// cached results.
//
// With a store attached (AttachStore), the batch is appended to the
// durable log BEFORE it becomes searchable — write-ahead order — and a log
// write failure rejects the whole batch with no visibility change.
func (e *Engine) Add(ts []traj.Trajectory) ([]int, error) {
	e.addMu.Lock()
	defer e.addMu.Unlock()
	g := e.cur.Load()
	st := e.store.Load()
	var stored []traj.Trajectory
	if st != nil {
		var err error
		stored, err = st.Append(ts)
		if err != nil {
			return nil, api.Errorf(api.CodeInternal, "durable append failed: %v", err)
		}
	} else {
		stored = make([]traj.Trajectory, len(ts))
		for i, t := range ts {
			t.ID = g.n + i
			stored[i] = t
		}
	}
	e.publish(e.place(g, stored, st, nil))
	ids := make([]int, len(ts))
	for i := range ids {
		ids[i] = g.n + i
	}
	return ids, nil
}

// AttachStore binds a persistent store to an empty engine and loads every
// recovered record into the shards, reusing the embeddings the store's
// checkpoint restored instead of re-encoding them. Subsequent Adds are
// written through the store's log before becoming searchable. The engine
// takes over the store's ID sequence, which is dense and therefore matches
// the engine's own assignment scheme exactly.
func (e *Engine) AttachStore(st *storage.Store) error {
	e.addMu.Lock()
	defer e.addMu.Unlock()
	if e.store.Load() != nil {
		return api.Errorf(api.CodeInternal, "engine already has a store attached")
	}
	g := e.cur.Load()
	if g.n != 0 {
		return api.Errorf(api.CodeInternal, "cannot attach a store to a non-empty engine (%d trajectories loaded)", g.n)
	}
	var reuse [][]float64
	if a := g.art; a.enc != nil {
		// checkpointed embeddings are reused only under the exact
		// registered encoder (fingerprint match); anything else re-encodes
		if fp, embs, ok := st.Embeddings(); ok && fp == a.encFP {
			reuse = embs
		}
	}
	e.publish(e.place(g, st.Records(), st, reuse))
	e.store.Store(st)
	return nil
}

// place returns the successor of g in which ts — records whose dense global
// IDs continue g's sequence — are searchable under g's encoder, built in two
// phases on the engine's workers: derive's, per record, and then one per
// affected shard, which grows once (records land on shard ID mod shards).
// The bucketing between them is serial, so every view is the one a serial
// placement builds. The caller holds addMu and publishes the result.
func (e *Engine) place(g *generation, ts []traj.Trajectory, st *storage.Store, reuse [][]float64) *generation {
	metas := e.derive(ts, g.art, st, reuse)
	next := g.successor()
	buckets := make([][]traj.Trajectory, len(g.shards))
	metaBuckets := make([][]core.TrajMeta, len(g.shards))
	for i, t := range ts {
		si := t.ID % len(g.shards)
		buckets[si] = append(buckets[si], t)
		metaBuckets[si] = append(metaBuckets[si], metas[i])
		next.points += int64(t.Len())
	}
	next.n += len(ts)
	e.parallel(len(g.shards), func(si int) {
		if len(buckets[si]) > 0 {
			// appending behind g's view is safe: its readers never look
			// past its length, and g is the newest view of these arrays
			stored, storedMetas := g.shards[si].db.Contents()
			next.shards[si] = g.shards[si].grow(append(stored, buckets[si]...), append(storedMetas, metaBuckets[si]...), g.art.enc)
		}
	})
	return next
}

// derive is placement's per-record phase: each record's scan metadata
// (core.DeriveMeta) and, with a.enc set, its embedding, which is reuse[ID]
// when that vector has the encoder's dimension and is otherwise computed —
// on the engine's workers, into the slot aligned with ts. Computed
// embeddings are then recorded against st (when non-nil) for the next
// checkpoint, serially and in ts order.
func (e *Engine) derive(ts []traj.Trajectory, a *artifacts, st *storage.Store, reuse [][]float64) []core.TrajMeta {
	reused := func(id int) bool { return id < len(reuse) && len(reuse[id]) == a.enc.Dim() }
	metas := make([]core.TrajMeta, len(ts))
	e.parallel(len(ts), func(i int) {
		t := ts[i]
		metas[i] = core.DeriveMeta(t)
		switch {
		case a.enc == nil:
		case reused(t.ID):
			metas[i].Emb = reuse[t.ID]
		default:
			metas[i].Emb = a.enc.Embed(t)
		}
	})
	if a.enc != nil && st != nil {
		for i, t := range ts {
			if !reused(t.ID) {
				st.SetEmbedding(t.ID, a.encFP, metas[i].Emb)
			}
		}
	}
	return metas
}

// parallel runs fn(i) for every i in [0, n) on up to Config.Workers
// goroutines of its own, each claiming the next index until none is left,
// and returns when every call has. It does not take the query slots (e.sem):
// see Config.Workers.
func (e *Engine) parallel(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(e.cfg.Workers, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Store returns the attached persistent store, or nil for a pure
// in-memory engine.
func (e *Engine) Store() *storage.Store { return e.store.Load() }

// Len returns the number of stored trajectories.
func (e *Engine) Len() int { return e.cur.Load().n }

// Traj returns the trajectory with the given global ID.
func (e *Engine) Traj(id int) (traj.Trajectory, bool) { return e.cur.Load().traj(id) }

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// measureFor builds the named measure against the pinned artifacts a,
// applying parameter overrides. "t2vec" is a's registered encoder, the one
// model behind the name, and fails when none is registered; every other
// name comes from the sim registry. The one measure parameter, edr_eps, is
// strictly scoped to EDR: a tolerance aimed at a measure that would ignore
// it is rejected, so a typo can never silently change what a distance
// means.
func measureFor(a *artifacts, name string, p Params) (sim.Measure, error) {
	if !finite(p.EDREps) || p.EDREps < 0 {
		return nil, api.Errorf(api.CodeInvalidArgument, "edr_eps must be finite and non-negative, got %g", p.EDREps)
	}
	if p.EDREps != 0 {
		if name != "edr" {
			return nil, api.Errorf(api.CodeInvalidArgument, "edr_eps set but measure is %q, not \"edr\"", name)
		}
		return sim.EDR{Eps: p.EDREps}, nil
	}
	if name == "t2vec" {
		if a.enc == nil {
			return nil, api.Errorf(api.CodeInvalidArgument,
				"measure \"t2vec\" requires a registered encoder (start with -encoder or POST /v2/admin/encoder)")
		}
		return a.enc, nil
	}
	m, err := sim.ByName(name)
	if err != nil {
		return nil, api.Errorf(api.CodeInvalidArgument, "%v", err)
	}
	return m, nil
}

// validateQuery rejects malformed queries with typed invalid_argument
// errors before any search work starts. The same checks guard the wire
// boundary (api.Trajectory.ToTraj) and the in-process path, so NaN/Inf
// coordinates and nonsensical k/pages can never reach a distance kernel.
func validateQuery(g *generation, q Query) *api.Error {
	if q.Q.Len() == 0 {
		return api.Errorf(api.CodeInvalidArgument, "query trajectory is empty")
	}
	for i, p := range q.Q.Points {
		if !finite(p.X) || !finite(p.Y) || !finite(p.T) {
			return api.Errorf(api.CodeInvalidArgument, "query point %d has a non-finite coordinate", i)
		}
	}
	if aerr := q.ValidatePage(g.n); aerr != nil {
		return aerr
	}
	if q.Bound != nil {
		if b := *q.Bound; !finite(b) || b < 0 {
			return api.Errorf(api.CodeInvalidArgument, "bound must be finite and non-negative, got %g", b)
		}
	}
	if f := q.Filter; f != nil {
		if !finite(f.MinX) || !finite(f.MinY) || !finite(f.MaxX) || !finite(f.MaxY) {
			return api.Errorf(api.CodeInvalidArgument, "filter has a non-finite coordinate")
		}
		if f.IsEmpty() {
			return api.Errorf(api.CodeInvalidArgument, "filter rectangle is empty")
		}
	}
	if a := q.ANN; a != nil {
		if a.Candidates <= 0 {
			return api.Errorf(api.CodeInvalidArgument, "ann.candidates must be positive, got %d", a.Candidates)
		}
		if a.Probes <= 0 {
			return api.Errorf(api.CodeInvalidArgument, "ann.probes must be positive, got %d", a.Probes)
		}
	}
	return nil
}

// ValidatePage checks the query's ranking window against a store of n
// trajectories: k positive and no larger than the store, offset and limit
// non-negative. The distributed coordinator runs the same check against
// the fleet's size.
func (q Query) ValidatePage(n int) *api.Error {
	if q.K <= 0 {
		return api.Errorf(api.CodeInvalidArgument, "k must be positive, got %d", q.K)
	}
	if q.K > n {
		return api.Errorf(api.CodeInvalidArgument, "k %d exceeds store size %d", q.K, n)
	}
	if q.Offset < 0 {
		return api.Errorf(api.CodeInvalidArgument, "offset must be non-negative, got %d", q.Offset)
	}
	if q.Limit < 0 {
		return api.Errorf(api.CodeInvalidArgument, "limit must be non-negative, got %d", q.Limit)
	}
	return nil
}

// PageOf selects the ranking window [offset, offset+limit) (limit 0 = to
// the end). The page aliases full — which cache hits share — so callers
// must treat it as read-only.
func PageOf(full []Match, offset, limit int) []Match {
	if offset >= len(full) {
		return nil
	}
	out := full[offset:]
	if limit > 0 && limit < len(out) {
		out = out[:limit]
	}
	return out
}

// CollapseDistinct keeps the best-ranked match per distinct matched
// subtrajectory content, resolving each match's trajectory through lookup;
// a match lookup cannot resolve is kept. Duplicates arise when the same
// data is bulk-loaded more than once under different global IDs; with
// Query.Distinct the ranking collapses them, so it may end up shorter than
// k. ms must be freshly allocated (it is filtered in place).
func CollapseDistinct(ms []Match, lookup func(id int) (traj.Trajectory, bool)) []Match {
	if len(ms) < 2 {
		return ms
	}
	seen := make(map[uint64][]traj.Trajectory, len(ms))
	out := ms[:0]
next:
	for _, m := range ms {
		t, ok := lookup(m.TrajID)
		if !ok {
			out = append(out, m)
			continue
		}
		sub := t.Sub(m.Result.Interval.I, m.Result.Interval.J)
		d := sub.Digest()
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

// TopK answers a top-k query: one bounded search task per shard, all of
// them feeding one global ascending ranking, with distinct collapsing and
// offset/limit paging applied last. cached reports whether the answer came
// from the LRU; the returned slice is shared on cache hits and must not be
// mutated. TopK honors ctx cancellation and deadlines. Validation and
// resolution failures are typed *api.Error values.
func (e *Engine) TopK(ctx context.Context, q Query) (matches []Match, cached bool, err error) {
	_, page, cached, _, err := e.topK(ctx, q, nil)
	return page, cached, err
}

// TopKStream answers q like TopK but delivers provisional matches while
// the scan is still running: emit is invoked — always on the calling
// goroutine — for every match that enters the running global top-k, so the
// first answers reach the caller long before the last shard finishes. The
// returned slice is the authoritative final ranking, identical to TopK's
// answer for the same query; a provisionally emitted match may be absent
// from it if later candidates displaced it. An emit error aborts the
// search and is returned unchanged. On a cache hit the final page is
// emitted match by match before the call returns.
func (e *Engine) TopKStream(ctx context.Context, q Query, emit func(Match) error) (matches []Match, cached bool, err error) {
	_, page, cached, _, err := e.topK(ctx, q, emit)
	return page, cached, err
}

// scatter fans the search out — one bounded task per shard, every worker
// offering its matches (under global IDs) into the query's one collector
// and reading the running GLOBAL k-th-best back, so one shard's good
// matches prune another shard's scan — and returns the collector's
// ranking. A wire-propagated bound seeds the collector so remote shards
// prune like local ones from the first candidate. With a non-nil emit,
// every match the collector retains is also handed to emit on the calling
// goroutine. scatter is the common scan core of topK and of the samplers'
// reference rescans; g is the query's pinned generation, whose encoder
// resolve has checked for every ann-prefiltered query.
func (e *Engine) scatter(ctx context.Context, g *generation, alg core.Algorithm, q Query, emit func(Match) error) ([]Match, core.PruneStats, error) {
	col := core.NewCollector(q.K)
	if q.Bound != nil {
		col.Seed(*q.Bound)
	}
	// the ANN prefilter state: the query embedding is computed once here
	// and shared by every shard worker, like the collector
	var annq *annQuery
	if q.ANN != nil {
		annq = annQueryFor(g, q)
	}
	// The stream hand-off: scanners send what the collector retained to the
	// calling goroutine, which runs emit — no per-shard completion barrier
	// between a candidate being searched and its match streaming out. A
	// scanner waiting to hand a match over still observes ctx, so a
	// slow-reading consumer cannot pin worker-pool slots past the deadline.
	// The buffer lets scanners run a few dozen matches ahead of emit.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var entered chan Match
	if emit != nil {
		entered = make(chan Match, 64)
	}
	offer := func(m core.Match) error {
		if !col.Offer(m) || emit == nil {
			return nil
		}
		select {
		case entered <- fromCore(m):
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	stats := make([]core.PruneStats, len(g.shards))
	errs := make([]error, len(g.shards))
	var wg sync.WaitGroup
	for i, s := range g.shards {
		wg.Add(1)
		go func(i int, s shard) {
			defer wg.Done()
			select {
			case e.sem <- struct{}{}:
				defer func() { <-e.sem }()
			case <-ctx.Done():
				errs[i] = ctx.Err()
				return
			}
			if ferr := failpoint.InjectCtx(ctx, "engine/scan"); ferr != nil {
				errs[i] = ferr
				return
			}
			errs[i] = s.scan(ctx, alg, q, col, &stats[i], annq, offer)
		}(i, s)
	}
	var prune core.PruneStats
	if emit == nil {
		wg.Wait()
	} else {
		go func() { wg.Wait(); close(entered) }()
		var emitErr error
		for m := range entered {
			if emitErr != nil {
				continue // drain so the cancelled scanners can exit
			}
			if emitErr = emit(m); emitErr != nil {
				cancel()
			}
		}
		if emitErr != nil {
			return nil, prune, emitErr
		}
	}
	for _, serr := range errs {
		if serr != nil {
			return nil, prune, serr
		}
	}
	for i := range stats {
		prune.Add(stats[i])
	}
	return ranking(col), prune, nil
}

// fromCore re-labels a collector match, whose TrajIndex a shard scan has
// already set to the global trajectory ID.
func fromCore(m core.Match) Match { return Match{TrajID: m.TrajIndex, Result: m.Result} }

// ranking drains a collector of global-ID matches into the ascending
// ranking it holds.
func ranking(col *core.Collector) []Match {
	ranked := col.Sorted()
	out := make([]Match, len(ranked))
	for i, m := range ranked {
		out[i] = fromCore(m)
	}
	return out
}

// topK is the one query path behind TopK and TopKStream (emit nil = not
// streamed): validate → resolve → cache probe → admission plan → scatter →
// cost model → quality/recall samplers → distinct → cache fill → page. It
// also returns the full (unpaged) ranking, which the API adapter reports as
// the result's Total, and the degradation marker when the
// overload-resilience plan substituted a cheaper algorithm.
func (e *Engine) topK(ctx context.Context, q Query, emit func(Match) error) (full, page []Match, cached bool, deg *api.Degraded, err error) {
	// the query's one load of the generation: validation, resolution, the
	// cache key, the cost model, the scan, the samplers and the ID lookups
	// all read it
	g := e.cur.Load()
	if aerr := validateQuery(g, q); aerr != nil {
		return nil, nil, false, nil, aerr
	}
	b, err := resolve(g.art, q)
	if err != nil {
		return nil, nil, false, nil, err
	}
	e.queries.Add(1)
	e.inflight.Add(1)
	defer e.inflight.Add(-1)

	// probe looks key up in the LRU; a streamed query has the cached page
	// emitted match by match
	var key cacheKey
	probe := func() (full, page []Match, hit bool, err error) {
		ms, ok := e.cache.get(key, q.Q)
		if !ok {
			return nil, nil, false, nil
		}
		e.hits.Add(1)
		page = PageOf(ms, q.Offset, q.Limit)
		if emit != nil {
			for _, m := range page {
				if err := emit(m); err != nil {
					return nil, nil, true, err
				}
			}
		}
		e.served(b, q)
		return ms, page, true, nil
	}
	if e.cache != nil {
		key = e.cacheKeyFor(q, g.id)
		if full, page, hit, err := probe(); hit {
			return full, page, err == nil, nil, err
		}
		e.misses.Add(1)
	}

	rel, deg, aerr := e.planAdmit(ctx, g, &q)
	if aerr != nil {
		return nil, nil, false, nil, aerr
	}
	defer rel()
	if deg != nil {
		// the plan substituted a cheaper algorithm: rebind it and retry the
		// cache under the rewritten query's key
		if b, err = resolve(g.art, q); err != nil {
			return nil, nil, false, nil, err
		}
		if e.cache != nil {
			key = e.cacheKeyFor(q, g.id)
			if full, page, hit, err := probe(); hit {
				return full, page, err == nil, deg, err
			}
		}
	}

	scanStart := time.Now()
	merged, prune, err := e.scatter(ctx, g, b.alg, q, emit)
	if err != nil {
		return nil, nil, false, nil, err
	}
	e.served(b, q)
	e.cost.observe(q.Measure, q.Algorithm, g.n, time.Since(scanStart))
	e.recordPrune(prune)
	// sampled serving quality of the learned searches: compare this ranking
	// against the exact one over the same generation — before distinct
	// collapsing, which the exact reference scan does not apply
	if b.row.NeedsPolicy && e.quality.sampled(e.cfg.QualitySample) {
		e.sampleQuality(ctx, g, b.m, q, merged)
	}
	// sampled ANN recall: compare the prefiltered ranking against the same
	// search over the exhaustive candidate set, in the same generation
	if q.ANN != nil && e.recall.sampled(e.cfg.RecallSample) {
		e.sampleRecall(ctx, g, b.alg, q, merged)
	}
	if q.Distinct {
		merged = CollapseDistinct(merged, g.traj)
	}
	// cache only while g is current: a ranking of a superseded generation
	// would sit under a key no lookup constructs. The cache keeps its own
	// copy so the miss-path return stays caller-owned.
	if e.cache != nil && e.cur.Load() == g {
		e.cache.put(key, q.Q, slices.Clone(merged))
	}
	return merged, PageOf(merged, q.Offset, q.Limit), false, deg, nil
}

// MergeTopK merges top-k lists — one per node, for the distributed
// coordinator, over wire rankings whose trajectory IDs it has translated to
// its own global ID space — into the global top k under core.RankBefore,
// through the same collector a local query's shards feed. With globally
// comparable IDs the merged ranking is byte-identical to a flat database's.
func MergeTopK(lists [][]Match, k int) []Match {
	col := core.NewCollector(k)
	for _, ms := range lists {
		for _, m := range ms {
			col.Offer(core.Match{TrajIndex: m.TrajID, Result: m.Result})
		}
	}
	return ranking(col)
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() Stats {
	g := e.cur.Load()
	st := Stats{
		Trajectories:   g.n,
		Points:         int(g.points),
		Shards:         len(g.shards),
		Workers:        e.cfg.Workers,
		Queries:        e.queries.Load(),
		CacheHits:      e.hits.Load(),
		CacheMisses:    e.misses.Load(),
		CacheEntries:   e.cache.len(),
		InFlight:       e.inflight.Load(),
		CandidatesSeen: e.candSeen.Load(),
		LBSkipped:      e.lbSkipped.Load(),
		EarlyAbandoned: e.abandoned.Load(),
		RLSQueries:     e.rlsQueries.Load(),

		Shed:            e.adm.shed.Load(),
		ShedExpensive:   e.adm.shedExpensive.Load(),
		DeadlineRejects: e.deadlineRejects.Load(),
		DegradedQueries: e.degradedQueries.Load(),
		QueueDepth:      e.adm.queued.Load(),
		QueueWaitMS:     api.MS(e.adm.queueWait()),
		Shedding:        e.adm.shedding.Load(),
	}
	if info, ok := g.art.policyInfo(); ok {
		st.PolicyLoaded = true
		st.PolicyName = info.Name
		st.PolicyFingerprint = info.Fingerprint
		st.PolicyCompiled = info.Compiled
		st.PolicyCompileResolution = info.CompileResolution
		st.PolicyCompileDivergence = info.CompileDivergence
		st.PolicyCompiledFingerprint = info.CompiledFingerprint
	}
	var quality, recall [3]float64
	st.QualitySamples, quality = e.quality.snapshot()
	st.ApproxRatio, st.MeanRank, st.SkippedFraction = quality[0], quality[1], quality[2]
	if info, ok := g.art.encoderInfo(); ok {
		st.EncoderLoaded = true
		st.EncoderFingerprint = info.Fingerprint
		st.EncoderDim = info.Dim
		st.EncoderGrid = info.Grid
	}
	st.ANNQueries = e.annQueries.Load()
	st.RecallSamples, recall = e.recall.snapshot()
	st.MeanRecall = recall[0]
	return st
}
