package engine

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"

	"simsub/api"
	"simsub/internal/core"
	"simsub/internal/rl"
)

// This file is the policy registry: the serving home of the paper's learned
// searches (RLS §5.3, RLS-Skip/RLS-Skip+ §5.4). An engine holds at most one
// DQN splitting policy, loaded at construction (cmd/simsubd -policy) or
// hot-swapped at runtime (POST /v2/admin/policy → SetPolicy). Queries
// naming algorithm "rls" / "rls-skip" resolve against the registered
// policy; with none loaded they fail as typed invalid_argument errors at
// the wire boundary.
//
// Swap correctness: the policy pointer is read once per query, so a search
// never mixes two policies, and the policy's fingerprint is part of the
// result-cache key (see cacheKey), so a ranking computed under an old
// policy can never be served after a swap — even to a query that raced the
// swap, because its cache entry lands under the old fingerprint, which no
// post-swap lookup can construct.

// policyEntry pins one immutable (policy, optional compiled table,
// fingerprint) triple.
type policyEntry struct {
	p *rl.Policy
	// table, when non-nil, serves the compiled table-lookup path
	// (rl.Compile) for this policy; queries then take O(1) array lookups
	// instead of network forward passes.
	table *rl.TablePolicy
	// fp is the serving fingerprint: the policy's content hash, folded
	// with the table's own fingerprint when one is compiled — so swapping
	// the policy, compiling a table, recompiling at another resolution and
	// dropping the table each invalidate cached rankings.
	fp uint64
}

// PolicyInfo describes the engine's currently registered policy, in its
// wire form.
type PolicyInfo = api.PolicyInfo

// PolicyFingerprint content-hashes a policy (FNV-1a over its serialized
// form): two policies answer queries identically whenever their
// fingerprints match, so the fingerprint is a sound cache-key component.
func PolicyFingerprint(p *rl.Policy) (uint64, error) {
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		return 0, err
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	return h.Sum64(), nil
}

// combinedFingerprint folds the base policy hash with the compiled table's
// into the serving fingerprint.
func combinedFingerprint(base, table uint64) uint64 {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], base)
	binary.LittleEndian.PutUint64(b[8:], table)
	h := fnv.New64a()
	h.Write(b[:])
	return h.Sum64()
}

// policyInfoFor derives the user-facing description of a registered entry.
func policyInfoFor(ent *policyEntry) PolicyInfo {
	info := PolicyInfo{
		Name:          core.RLS{Policy: ent.p, Table: ent.table}.Name(),
		K:             ent.p.K,
		UseSuffix:     ent.p.UseSuffix,
		SimplifyState: ent.p.SimplifyState,
		Fingerprint:   fmt.Sprintf("%016x", ent.fp),
	}
	if ent.table != nil {
		info.Compiled = true
		info.CompileResolution = ent.table.Resolution
		info.CompileDivergence = ent.table.Divergence
		info.CompiledFingerprint = fmt.Sprintf("%016x", ent.table.Fingerprint())
	}
	return info
}

// SetPolicy validates and registers a policy, making the "rls"/"rls-skip"
// algorithms servable, and returns its description. Swapping purges the
// result cache: old-policy rankings are unreachable anyway (the fingerprint
// keys them), so purging frees their LRU slots. Invalid policies are
// rejected with a typed invalid_argument error and leave the current
// registration untouched. Safe for concurrent use with in-flight queries:
// each query pins the policy pointer it resolved.
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
	fp, err := PolicyFingerprint(p)
	if err != nil {
		return PolicyInfo{}, api.Errorf(api.CodeInvalidArgument, "fingerprinting policy: %v", err)
	}
	ent := &policyEntry{p: p, fp: fp}
	if resolution > 0 {
		table, err := rl.Compile(p, resolution)
		if err != nil {
			return PolicyInfo{}, api.Errorf(api.CodeInvalidArgument, "compiling policy table: %v", err)
		}
		ent.table = table
		ent.fp = combinedFingerprint(fp, table.Fingerprint())
	}
	e.policy.Store(ent)
	e.cache.purge()
	return policyInfoFor(ent), nil
}

// Policy returns the registered policy's description; ok is false when none
// is loaded.
func (e *Engine) Policy() (PolicyInfo, bool) {
	ent := e.policy.Load()
	if ent == nil {
		return PolicyInfo{}, false
	}
	return policyInfoFor(ent), true
}

// isRLSAlgorithm reports whether the name selects the learned searches,
// which resolve against the policy registry rather than core.AlgorithmFor.
func isRLSAlgorithm(name string) bool {
	return name == "rls" || name == "rls-skip"
}

// resolveAlg builds the measure and algorithm a query names. For the
// heuristic algorithms it defers to ResolveQuery; for "rls"/"rls-skip" it
// binds the registered policy (typed invalid_argument when none is loaded
// or the loaded policy's kind does not match the requested name) and
// returns the policy fingerprint for the cache key (0 for non-learned
// algorithms).
func (e *Engine) resolveAlg(measure, algorithm string, p Params) (core.Algorithm, uint64, error) {
	if algorithm == "embed" {
		// pure embedding ranking: binds the registered encoder the same way
		// the learned searches bind the registered policy, with the encoder
		// fingerprint in the fingerprint slot of the cache key
		if measure != "t2vec" {
			return nil, 0, api.Errorf(api.CodeInvalidArgument,
				"algorithm \"embed\" ranks by encoder embeddings and requires measure \"t2vec\", got %q", measure)
		}
		if _, err := measureFor(measure, p); err != nil {
			return nil, 0, err
		}
		if p.POSDelay != 0 {
			return nil, 0, api.Errorf(api.CodeInvalidArgument, "pos_delay set but algorithm is \"embed\", not \"pos-d\"")
		}
		ent := e.encoder.Load()
		if ent == nil {
			return nil, 0, api.Errorf(api.CodeInvalidArgument,
				"algorithm \"embed\" requires a registered encoder (start with -encoder or POST /v2/admin/encoder)")
		}
		return core.EmbedRank{E: ent.model}, ent.fp, nil
	}
	if !isRLSAlgorithm(algorithm) {
		alg, err := ResolveQuery(measure, algorithm, p)
		return alg, 0, err
	}
	m, err := measureFor(measure, p)
	if err != nil {
		return nil, 0, err
	}
	if p.POSDelay != 0 {
		return nil, 0, api.Errorf(api.CodeInvalidArgument, "pos_delay set but algorithm is %q, not \"pos-d\"", algorithm)
	}
	ent := e.policy.Load()
	if ent == nil {
		return nil, 0, api.Errorf(api.CodeInvalidArgument,
			"algorithm %q requires a loaded policy (start with -policy or POST /v2/admin/policy)", algorithm)
	}
	if algorithm == "rls" && ent.p.K > 0 {
		return nil, 0, api.Errorf(api.CodeInvalidArgument,
			"algorithm \"rls\" requested but the loaded policy has %d skip actions; use \"rls-skip\"", ent.p.K)
	}
	if algorithm == "rls-skip" && ent.p.K == 0 {
		return nil, 0, api.Errorf(api.CodeInvalidArgument,
			"algorithm \"rls-skip\" requested but the loaded policy has no skip actions; use \"rls\"")
	}
	return core.RLS{M: m, Policy: ent.p, Table: ent.table}, ent.fp, nil
}

// qualityTracker accumulates the sampled serving-quality aggregates the
// paper reports for the learned searches (Tables 4–5): the approximation
// ratio and rank of approximate rankings against the exact ranking, and the
// skipped-point fraction of skip policies.
type qualityTracker struct {
	mu           sync.Mutex
	rng          *rand.Rand
	samples      int64
	ratioSum     float64
	ratioSamples int64
	rankSum      float64
	skipSum      float64
	skipSamples  int64
}

// sampled rolls the per-query sampling decision at the given rate.
func (t *qualityTracker) sampled(rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.rng == nil {
		t.rng = rand.New(rand.NewSource(1))
	}
	return t.rng.Float64() < rate
}

func (t *qualityTracker) record(q core.ApproxQuality, hasSkip bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.samples++
	t.rankSum += q.MeanRank
	// the ratio is undefined when every sampled position had a 0-distance
	// exact answer the approximate search missed; such samples still count
	// for rank/skip but not toward the ratio mean
	if q.RatioPositions > 0 {
		t.ratioSamples++
		t.ratioSum += q.ApproxRatio
	}
	if hasSkip {
		t.skipSamples++
		t.skipSum += q.SkippedFraction
	}
}

func (t *qualityTracker) snapshot() (samples int64, ratioMean, rankMean, skipMean float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	samples = t.samples
	if t.ratioSamples > 0 {
		ratioMean = t.ratioSum / float64(t.ratioSamples)
	}
	if t.samples > 0 {
		rankMean = t.rankSum / float64(t.samples)
	}
	if t.skipSamples > 0 {
		skipMean = t.skipSum / float64(t.skipSamples)
	}
	return
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

// sampleQuality scores one served approximate ranking (pre-distinct, so
// it compares like against like) with core.ScoreApproxQuality: an ExactS
// rescan over the same filter and k supplies the exact reference, then the
// approximation ratio, mean rank and skipped-point fraction (Tables 4–5)
// feed the engine's quality aggregates.
//
// Cost: one exact scan over the query's candidates, plus — for skip
// policies — one policy walk per ranked match; hence the QualitySample
// knob. The rescan's pruning work is deliberately not folded into the
// engine's serving counters. gen is the store generation observed before
// the approximate scan: if it was odd (a load was in flight) or the store
// moved by the time the exact rescan finishes, the two rankings may come
// from different snapshots and the sample is dropped rather than poisoning
// the lifetime aggregates.
func (e *Engine) sampleQuality(ctx context.Context, q Query, rls core.RLS, approx []Match, gen uint64) {
	if len(approx) == 0 {
		return
	}
	// checked before the rescan (don't pay for a doomed sample) and again
	// after (a load may complete mid-rescan)
	if gen%2 != 0 || e.gen.Load() != gen {
		return
	}
	exact, _, err := e.scatter(ctx, core.ExactS{M: rls.M}, q, nil)
	if err != nil {
		return
	}
	if e.gen.Load() != gen {
		return
	}
	res, ok := core.ScoreApproxQuality(rls.M, rls.Policy, q.Q,
		e.rankedAnswers(approx), e.rankedAnswers(exact))
	if !ok {
		return
	}
	e.quality.record(res, rls.Policy.K > 0)
}
