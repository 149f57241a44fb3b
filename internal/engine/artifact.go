package engine

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"sort"
	"sync"

	"simsub/api"
	"simsub/internal/ann"
	"simsub/internal/core"
	"simsub/internal/rl"
	"simsub/internal/sim"
	"simsub/internal/t2vec"
	"simsub/internal/traj"
)

// This file is the serving-artifact registry: the engine's home for the
// paper's two learned components. One immutable snapshot holds the DQN
// splitting policy behind "rls"/"rls-skip" (RLS §5.3, RLS-Skip/RLS-Skip+
// §5.4), optionally compiled onto an action table, and the t2vec encoder
// behind measure "t2vec" (every algorithm scores with it), "embed" (every
// trajectory ranked by the Euclidean distance of its stored embedding to
// the query's) and the ann prefilter (each shard's LSH
// index proposes candidates by embedding distance, the exact cascade
// reranks them). Each is loaded at construction (cmd/simsubd -policy /
// -encoder) or hot-swapped at runtime (POST /v2/admin/policy → SetPolicy,
// POST /v2/admin/encoder → SetEncoder); a swap builds the next snapshot
// and replaces the pointer.
//
// Swap correctness: a query loads the snapshot once, and resolution, the
// cache key, the ann query embedding and the samplers' reference rescans
// all read that pinned value. The stored embeddings are not in the
// snapshot: SetEncoder publishes it before re-embedding the shards, so each
// shard view records its encoder and a scan pinned to another one ignores
// the view's vectors (shard.scan); a search never mixes two artifacts. The
// snapshot's fingerprint folds the content hash of whatever is registered
// and is part of the result-cache key: a ranking that raced a swap lands
// under the old fingerprint, which no post-swap lookup can construct.
// Every swap also purges the cache, and SetEncoder bumps the store
// generation while it re-embeds, so a ranking that raced it is never cached.

// artifacts is one immutable registry snapshot. New installs an empty one,
// so a loaded snapshot is never nil.
type artifacts struct {
	policy *rl.Policy
	// table, when non-nil, serves the compiled table-lookup path
	// (rl.Compile) for policy: O(1) array lookups instead of network
	// forward passes.
	table *rl.TablePolicy
	enc   *t2vec.Model
	// policyFP is the policy's content hash, folded with the table's own
	// fingerprint when one is compiled, so compiling, recompiling at another
	// resolution and dropping the table each move it; encFP is the
	// encoder's content hash, which also keys persisted embeddings.
	policyFP, encFP uint64
	// fp folds both into the result-cache key component.
	fp uint64
}

// PolicyInfo describes the engine's currently registered policy, in its
// wire form.
type PolicyInfo = api.PolicyInfo

// EncoderInfo describes the engine's currently registered encoder, in its
// wire form.
type EncoderInfo = api.EncoderInfo

// fingerprint content-hashes an artifact (FNV-1a over its serialized
// form): two artifacts serve identically whenever their fingerprints
// match, so the fingerprint is a sound cache-key component.
func fingerprint(a interface{ Save(io.Writer) error }) (uint64, error) {
	h := fnv.New64a()
	if err := a.Save(h); err != nil {
		return 0, err
	}
	return h.Sum64(), nil
}

// EncoderFingerprint is the encoder's content hash, the key under which
// its embeddings are persisted and reused during recovery.
func EncoderFingerprint(m *t2vec.Model) (uint64, error) { return fingerprint(m) }

// fold combines two fingerprints into one.
func fold(a, b uint64) uint64 {
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], a)
	binary.LittleEndian.PutUint64(buf[8:], b)
	h := fnv.New64a()
	h.Write(buf[:])
	return h.Sum64()
}

// swapArtifacts installs next, with its fingerprint derived, as the
// registry snapshot and purges the result cache: rankings keyed under the
// old fingerprint are unreachable anyway, so purging frees their LRU
// slots. Callers hold addMu, so concurrent swaps of different artifacts
// never lose one another.
func (e *Engine) swapArtifacts(next artifacts) *artifacts {
	next.fp = fold(next.policyFP, next.encFP)
	a := &next
	e.art.Store(a)
	e.cache.purge()
	return a
}

func policyInfoFor(a *artifacts) PolicyInfo {
	info := PolicyInfo{
		Name:          core.RLS{Policy: a.policy, Table: a.table}.Name(),
		K:             a.policy.K,
		UseSuffix:     a.policy.UseSuffix,
		SimplifyState: a.policy.SimplifyState,
		Fingerprint:   fmt.Sprintf("%016x", a.policyFP),
	}
	if a.table != nil {
		info.Compiled = true
		info.CompileResolution = a.table.Resolution
		info.CompileDivergence = a.table.Divergence
		info.CompiledFingerprint = fmt.Sprintf("%016x", a.table.Fingerprint())
	}
	return info
}

func encoderInfoFor(a *artifacts) EncoderInfo {
	return EncoderInfo{
		Dim:         a.enc.Dim(),
		Grid:        a.enc.Grid(),
		Fingerprint: fmt.Sprintf("%016x", a.encFP),
	}
}

// SetPolicy validates and registers a policy, making the "rls"/"rls-skip"
// algorithms servable, and returns its description. Swapping purges the
// result cache. Invalid policies are rejected with a typed
// invalid_argument error and leave the current registration untouched.
// Safe for concurrent use with in-flight queries: each query pins the
// snapshot it resolved.
func (e *Engine) SetPolicy(p *rl.Policy) (PolicyInfo, error) {
	return e.SetPolicyCompiled(p, 0)
}

// SetPolicyCompiled is SetPolicy with the compiled-table serving path
// opted in: with resolution > 0 the policy's greedy surface is distilled
// onto a resolution^dim table (rl.Compile) registered alongside it, so
// "rls"/"rls-skip" queries take O(1) action lookups instead of network
// forward passes. Compilation failures — resolution out of bounds, a grid
// too large, an invalid policy — are typed invalid_argument errors leaving
// the current registration untouched. resolution 0 registers the plain
// network-serving policy.
func (e *Engine) SetPolicyCompiled(p *rl.Policy, resolution int) (PolicyInfo, error) {
	if p == nil {
		return PolicyInfo{}, api.Errorf(api.CodeInvalidArgument, "nil policy")
	}
	if err := p.Validate(); err != nil {
		return PolicyInfo{}, api.Errorf(api.CodeInvalidArgument, "%v", err)
	}
	fp, err := fingerprint(p)
	if err != nil {
		return PolicyInfo{}, api.Errorf(api.CodeInvalidArgument, "fingerprinting policy: %v", err)
	}
	var table *rl.TablePolicy
	if resolution > 0 {
		if table, err = rl.Compile(p, resolution); err != nil {
			return PolicyInfo{}, api.Errorf(api.CodeInvalidArgument, "compiling policy table: %v", err)
		}
		fp = fold(fp, table.Fingerprint())
	}
	e.addMu.Lock()
	defer e.addMu.Unlock()
	next := *e.art.Load()
	next.policy, next.table, next.policyFP = p, table, fp
	return policyInfoFor(e.swapArtifacts(next)), nil
}

// Policy returns the registered policy's description; ok is false when none
// is loaded.
func (e *Engine) Policy() (PolicyInfo, bool) {
	a := e.art.Load()
	if a.policy == nil {
		return PolicyInfo{}, false
	}
	return policyInfoFor(a), true
}

// SetEncoder validates and registers a trajectory encoder, making the
// "embed" algorithm and the ann prefilter servable, then re-embeds every
// stored trajectory under it and rebuilds each shard's LSH index. With a
// persistent store attached the fresh embeddings are recorded against it,
// so the next snapshot persists them and recovery under the same encoder
// skips re-encoding. Swapping purges the result cache. Invalid encoders
// are rejected with a typed invalid_argument error and leave the current
// registration untouched.
func (e *Engine) SetEncoder(m *t2vec.Model) (EncoderInfo, error) {
	if m == nil {
		return EncoderInfo{}, api.Errorf(api.CodeInvalidArgument, "nil encoder")
	}
	if err := m.Validate(); err != nil {
		return EncoderInfo{}, api.Errorf(api.CodeInvalidArgument, "%v", err)
	}
	fp, err := fingerprint(m)
	if err != nil {
		return EncoderInfo{}, api.Errorf(api.CodeInvalidArgument, "fingerprinting encoder: %v", err)
	}
	e.addMu.Lock()
	defer e.addMu.Unlock()
	// seqlock: queries racing the swap observe a changed generation and
	// skip the cache put — see the matching check in topK
	e.gen.Add(1)
	defer e.gen.Add(1)
	next := *e.art.Load()
	next.enc, next.encFP = m, fp
	a := e.swapArtifacts(next)
	// re-embed through placement's two phases: every stored record, shard
	// by shard, into one FRESH meta slice (in-flight searches keep reading
	// the old ones), cut back into per-shard views that are installed
	// together; clipped, so a later Add appending behind one shard's view
	// cannot write into the next one's
	trajs := make([][]traj.Trajectory, len(e.shards))
	all := make([]traj.Trajectory, 0, e.Len())
	for si, s := range e.shards {
		trajs[si], _ = s.db.Contents()
		all = append(all, trajs[si]...)
	}
	metas := e.derive(all, a, e.store.Load(), nil)
	shardMetas := make([][]core.TrajMeta, len(e.shards))
	for si, ts := range trajs {
		shardMetas[si], metas = metas[:len(ts):len(ts)], metas[len(ts):]
	}
	e.parallel(len(e.shards), func(si int) {
		e.shards[si].install(trajs[si], shardMetas[si], m)
	})
	return encoderInfoFor(a), nil
}

// Measures lists the measure names the engine can serve, sorted: the sim
// registry's, plus "t2vec" exactly when an encoder is registered.
func (e *Engine) Measures() []string {
	names := sim.Names()
	if e.art.Load().enc != nil {
		names = append(names, "t2vec")
		sort.Strings(names)
	}
	return names
}

// Encoder returns the registered encoder's description; ok is false when
// none is loaded.
func (e *Engine) Encoder() (EncoderInfo, bool) {
	a := e.art.Load()
	if a.enc == nil {
		return EncoderInfo{}, false
	}
	return encoderInfoFor(a), true
}

// binding is one query's resolution: the algorithm, the registration row
// it was resolved from and the measure it scores under.
type binding struct {
	alg core.Algorithm
	row api.AlgorithmInfo
	m   sim.Measure
}

// resolve builds the measure and algorithm q names against the pinned
// snapshot a. Measure "t2vec" binds a's encoder (measureFor); the api
// registration table drives the rest: names, aliases, measure pinning
// (embed is t2vec-only) and
// parameter scoping come from its rows, a NeedsPolicy row binds a's policy
// (which must be of the row's kind: split-only for "rls", with skip actions
// for "rls-skip"), a NeedsEncoder row binds a's encoder, and every other
// row goes to core.AlgorithmFor. An ann prefilter needs a's encoder too.
// Every failure is a typed *api.Error with code invalid_argument.
func resolve(a *artifacts, q Query) (binding, error) {
	m, err := measureFor(a, q.Measure, q.Params)
	if err != nil {
		return binding{}, err
	}
	row, aerr := api.CheckAlgorithm(q.Measure, q.Algorithm)
	if aerr != nil {
		return binding{}, aerr
	}
	b := binding{row: row, m: m}
	switch d := q.Params.POSDelay; {
	case d < 0:
		return binding{}, api.Errorf(api.CodeInvalidArgument, "pos_delay must be positive, got %d", d)
	case d > 0 && row.Name != "pos-d":
		return binding{}, api.Errorf(api.CodeInvalidArgument, "pos_delay set but algorithm is %q, not \"pos-d\"", q.Algorithm)
	case d > 0:
		b.alg = core.POSD{M: m, D: d}
	case row.NeedsPolicy:
		if a.policy == nil {
			return binding{}, api.Errorf(api.CodeInvalidArgument,
				"algorithm %q requires a loaded policy (start with -policy or POST /v2/admin/policy)", q.Algorithm)
		}
		if skips := a.policy.K > 0; skips != (row.Name == "rls-skip") {
			return binding{}, api.Errorf(api.CodeInvalidArgument,
				"algorithm %q requested but the loaded policy has %d skip actions; use \"rls\" for 0, \"rls-skip\" for more",
				q.Algorithm, a.policy.K)
		}
		b.alg = core.RLS{M: m, Policy: a.policy, Table: a.table}
	case row.NeedsEncoder:
		if a.enc == nil {
			return binding{}, api.Errorf(api.CodeInvalidArgument,
				"algorithm %q requires a registered encoder (start with -encoder or POST /v2/admin/encoder)", q.Algorithm)
		}
		b.alg = core.EmbedRank{E: a.enc}
	default:
		alg, ok := core.AlgorithmFor(row.Name, m)
		if !ok {
			return binding{}, api.Errorf(api.CodeInvalidArgument, "unknown algorithm %q", q.Algorithm)
		}
		b.alg = alg
	}
	if q.ANN != nil && a.enc == nil {
		return binding{}, api.Errorf(api.CodeInvalidArgument,
			"ann prefilter requires a registered encoder (start with -encoder or POST /v2/admin/encoder)")
	}
	return b, nil
}

// ResolveQuery builds the measure and algorithm a query names, applying
// per-query parameter overrides, with no artifacts registered: measure
// "t2vec", the learned searches and embedding ranking, which bind an
// engine's registered encoder or policy, resolve only through
// Engine.Resolve. All resolution failures are typed *api.Error values with
// code invalid_argument.
func ResolveQuery(measure, algorithm string, p Params) (core.Algorithm, error) {
	b, err := resolve(&artifacts{}, Query{Measure: measure, Algorithm: algorithm, Params: p})
	return b.alg, err
}

// Resolve builds the measure and algorithm a query names against the
// engine's current registry snapshot.
func (e *Engine) Resolve(q Query) (core.Algorithm, error) {
	b, err := resolve(e.art.Load(), q)
	return b.alg, err
}

// served counts one answered query, on the plan that answered it.
func (e *Engine) served(b binding, q Query) {
	if b.row.NeedsPolicy {
		e.rlsQueries.Add(1)
	}
	if q.ANN != nil {
		e.annQueries.Add(1)
	}
}

// annQuery is the per-query ANN prefilter state handed to each shard: the
// query embedding (computed once), the per-shard candidate budget and the
// multi-probe width.
type annQuery struct {
	qEmb   []float64
	want   int
	probes int
}

// annQueryFor derives the per-shard prefilter state, splitting the query's
// total candidate budget evenly across shards (rounding up, so the global
// budget is a floor — every shard contributes, mirroring how the exact
// scan's top-k draws from every shard).
func (e *Engine) annQueryFor(enc *t2vec.Model, q Query) *annQuery {
	n := len(e.shards)
	return &annQuery{
		qEmb:   enc.QueryEmbedding(q.Q),
		want:   (q.ANN.Candidates + n - 1) / n,
		probes: q.ANN.Probes,
	}
}

// candidates is the shard's share of the prefilter: the index's
// embedding-nearest members, which the scan restricts to the region filter
// and reranks exactly, so the only approximation is which trajectories are
// absent. It is never nil: an index that proposes nothing scans nothing,
// where a nil list would fall back to the spatial candidates.
func (a *annQuery) candidates(ix *ann.Index) []int {
	if ids := ix.Search(a.qEmb, a.want, a.probes); ids != nil {
		return ids
	}
	return []int{}
}

// sampler is one sampled serving-telemetry aggregate: a per-query rate
// roll on a seeded rng, and a sample count with up to three running means
// under one mutex.
type sampler struct {
	mu      sync.Mutex
	rng     *rand.Rand
	samples int64
	sums    [3]float64
	counts  [3]int64
}

// sampled rolls the per-query sampling decision at the given rate.
func (s *sampler) sampled(rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(1))
	}
	return s.rng.Float64() < rate
}

// record counts one sample and folds vals[i] into mean i; a NaN value is
// undefined for this sample and leaves its mean alone.
func (s *sampler) record(vals ...float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.samples++
	for i, v := range vals {
		if !math.IsNaN(v) {
			s.sums[i] += v
			s.counts[i]++
		}
	}
}

// snapshot returns the sample count and each running mean (0 while it
// has no values).
func (s *sampler) snapshot() (samples int64, means [3]float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, n := range s.counts {
		if n > 0 {
			means[i] = s.sums[i] / float64(n)
		}
	}
	return s.samples, means
}

// rescan runs a sampler's reference search for one served ranking. gen is
// the store generation observed before the served scan: if it was odd (a
// load was in flight) or the store moved by the time the rescan finishes,
// the two rankings may come from different snapshots and ok is false, so
// the sample is dropped rather than poisoning the lifetime aggregates. The
// rescan's pruning work is deliberately not folded into the engine's
// serving counters.
func (e *Engine) rescan(ctx context.Context, a *artifacts, alg core.Algorithm, q Query, gen uint64) (ref []Match, ok bool) {
	// checked before the rescan (don't pay for a doomed sample) and again
	// after (a load may complete mid-rescan)
	if gen%2 != 0 || e.gen.Load() != gen {
		return nil, false
	}
	ref, _, err := e.scatter(ctx, a, alg, q, nil)
	if err != nil || e.gen.Load() != gen {
		return nil, false
	}
	return ref, true
}

// rankedAnswers converts engine matches to the shared scorer's form,
// dropping matches whose trajectory is no longer resolvable.
func (e *Engine) rankedAnswers(ms []Match) []core.RankedAnswer {
	out := make([]core.RankedAnswer, 0, len(ms))
	for _, m := range ms {
		t, ok := e.Traj(m.TrajID)
		if !ok {
			continue
		}
		out = append(out, core.RankedAnswer{ID: m.TrajID, T: t, R: m.Result})
	}
	return out
}

// sampleQuality scores one served learned ranking (pre-distinct, so it
// compares like against like) with core.ScoreApproxQuality against an
// ExactS rescan over the same filter and k, feeding the approximation
// ratio, mean rank and skipped-point fraction of the paper's Tables 4–5
// into the quality aggregates. Cost: one exact scan over the query's
// candidates, plus — for skip policies — one policy walk per ranked match;
// hence the QualitySample knob.
func (e *Engine) sampleQuality(ctx context.Context, a *artifacts, m sim.Measure, q Query, approx []Match, gen uint64) {
	if len(approx) == 0 {
		return
	}
	exact, ok := e.rescan(ctx, a, core.ExactS{M: m}, q, gen)
	if !ok {
		return
	}
	res, ok := core.ScoreApproxQuality(m, a.policy, q.Q, e.rankedAnswers(approx), e.rankedAnswers(exact))
	if !ok {
		return
	}
	// the ratio is undefined when every sampled position had a 0-distance
	// exact answer the approximate search missed; such samples still count
	// for rank/skip but not toward the ratio mean
	ratio, skip := res.ApproxRatio, res.SkippedFraction
	if res.RatioPositions == 0 {
		ratio = math.NaN()
	}
	if a.policy.K == 0 {
		skip = math.NaN()
	}
	e.quality.record(ratio, res.MeanRank, skip)
}

// sampleRecall scores one served ANN-prefiltered ranking against the
// exhaustive-candidate ranking of the same algorithm (for algorithm
// "exacts" this is literally recall@k vs ExactS): the fraction of the
// exact top-k's trajectory IDs the prefiltered ranking retained.
func (e *Engine) sampleRecall(ctx context.Context, a *artifacts, alg core.Algorithm, q Query, approx []Match, gen uint64) {
	q.ANN = nil
	exact, ok := e.rescan(ctx, a, alg, q, gen)
	if !ok {
		return
	}
	if len(exact) == 0 {
		e.recall.record(1)
		return
	}
	in := make(map[int]bool, len(approx))
	for _, m := range approx {
		in[m.TrajID] = true
	}
	hit := 0
	for _, m := range exact {
		if in[m.TrajID] {
			hit++
		}
	}
	e.recall.record(float64(hit) / float64(len(exact)))
}
