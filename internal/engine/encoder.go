package engine

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"

	"simsub/api"
	"simsub/internal/ann"
	"simsub/internal/core"
	"simsub/internal/geo"
	"simsub/internal/t2vec"
	"simsub/internal/traj"
)

// This file is the encoder registry: the serving home of the t2vec
// embedding stack, structured exactly like the policy registry (policy.go).
// An engine holds at most one trajectory encoder, loaded at construction
// (cmd/simsubd -encoder) or hot-swapped at runtime (POST /v2/admin/encoder
// → SetEncoder). The encoder powers two query surfaces:
//
//   - measure "t2vec" + algorithm "embed": pure embedding ranking
//     (core.EmbedRank) — every data trajectory scored by the Euclidean
//     distance of its stored embedding to the query's, no DP at all;
//   - the ann prefilter on any measure: the per-shard LSH index proposes a
//     coarse candidate set by embedding distance (Query.ANN) and the exact
//     lower-bound cascade reranks it, so retained matches carry distances
//     byte-identical to scoring those candidates directly.
//
// Swap correctness mirrors the policy registry: the encoder pointer is
// read once per query, the fingerprint is folded into the result-cache key
// (cacheKey.encoder / the fp slot for "embed"), and SetEncoder bumps the
// store-generation seqlock while it re-embeds, so a ranking that raced a
// swap can never enter the cache.

// encoderEntry pins one immutable (model, fingerprint) pair.
type encoderEntry struct {
	model *t2vec.Model
	fp    uint64
}

// EncoderInfo describes the engine's currently registered encoder, in its
// wire form.
type EncoderInfo = api.EncoderInfo

// EncoderFingerprint content-hashes an encoder (FNV-1a over its serialized
// form): two encoders embed identically whenever their fingerprints match,
// so the fingerprint is a sound cache-key component and a sound
// skip-re-encoding check during recovery.
func EncoderFingerprint(m *t2vec.Model) (uint64, error) {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return 0, err
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	return h.Sum64(), nil
}

func encoderInfoFor(ent *encoderEntry) EncoderInfo {
	return EncoderInfo{
		Dim:         ent.model.Dim(),
		Grid:        ent.model.Grid(),
		Fingerprint: fmt.Sprintf("%016x", ent.fp),
	}
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
	if m.Dim() <= 0 {
		return EncoderInfo{}, api.Errorf(api.CodeInvalidArgument, "encoder has embedding dimension %d, want > 0", m.Dim())
	}
	fp, err := EncoderFingerprint(m)
	if err != nil {
		return EncoderInfo{}, api.Errorf(api.CodeInvalidArgument, "fingerprinting encoder: %v", err)
	}
	ent := &encoderEntry{model: m, fp: fp}
	e.addMu.Lock()
	defer e.addMu.Unlock()
	// seqlock: queries racing the swap observe a changed generation and
	// skip the cache put — see the matching check in topK
	e.gen.Add(1)
	defer e.gen.Add(1)
	e.encoder.Store(ent)
	st := e.store.Load()
	nshards := len(e.shards)
	for si, s := range e.shards {
		embs := s.reembed(ent)
		if st != nil {
			for li, emb := range embs {
				st.SetEmbedding(li*nshards+si, fp, emb)
			}
		}
	}
	e.cache.purge()
	return encoderInfoFor(ent), nil
}

// Encoder returns the registered encoder's description; ok is false when
// none is loaded.
func (e *Engine) Encoder() (EncoderInfo, bool) {
	ent := e.encoder.Load()
	if ent == nil {
		return EncoderInfo{}, false
	}
	return encoderInfoFor(ent), true
}

// EncoderModel returns the registered encoder model itself (nil when none
// is loaded); the admin surface uses it to re-serialize the encoder for
// broadcast.
func (e *Engine) EncoderModel() *t2vec.Model {
	ent := e.encoder.Load()
	if ent == nil {
		return nil
	}
	return ent.model
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
func (e *Engine) annQueryFor(ent *encoderEntry, q Query) *annQuery {
	n := len(e.shards)
	return &annQuery{
		qEmb:   ent.model.QueryEmbedding(q.Q),
		want:   (q.ANN.Candidates + n - 1) / n,
		probes: q.ANN.Probes,
	}
}

// annSource adapts one shard's LSH index to core.CandidateSource: the
// index proposes its embedding-nearest `want` members, restricted to the
// query's region filter. The exact cascade downstream reranks whatever
// comes back, so the only approximation is which trajectories are absent.
type annSource struct {
	db *core.Database
	ix *ann.Index
	q  *annQuery
}

func (s annSource) Candidates(q traj.Trajectory, filter *geo.Rect) []int {
	ids := s.ix.Search(s.q.qEmb, s.q.want, s.q.probes)
	if filter == nil {
		return ids
	}
	out := ids[:0]
	for _, ci := range ids {
		if s.db.Meta(ci).MBR.Intersects(*filter) {
			out = append(out, ci)
		}
	}
	return out
}

// annCheck resolves the encoder entry an ANN-prefiltered query needs; nil
// entry (with nil error) for queries without the prefilter.
func (e *Engine) annCheck(q Query) (*encoderEntry, *api.Error) {
	if q.ANN == nil {
		return nil, nil
	}
	ent := e.encoder.Load()
	if ent == nil {
		return nil, api.Errorf(api.CodeInvalidArgument,
			"ann prefilter requires a registered encoder (start with -encoder or POST /v2/admin/encoder)")
	}
	return ent, nil
}

// recallTracker accumulates the sampled ANN recall telemetry: for a
// sampled fraction of ANN-prefiltered queries the engine reruns the same
// search without the prefilter and records the top-k overlap (recall@k).
type recallTracker struct {
	mu        sync.Mutex
	rng       *rand.Rand
	samples   int64
	recallSum float64
}

// sampled rolls the per-query sampling decision at the given rate.
func (t *recallTracker) sampled(rate float64) bool {
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

func (t *recallTracker) record(recall float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.samples++
	t.recallSum += recall
}

func (t *recallTracker) snapshot() (samples int64, mean float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.samples > 0 {
		mean = t.recallSum / float64(t.samples)
	}
	return t.samples, mean
}

// sampleRecall scores one served ANN-prefiltered ranking against the
// exhaustive-candidate ranking of the same algorithm (for algorithm
// "exacts" this is literally recall@k vs ExactS): the fraction of the
// exact top-k's trajectory IDs the prefiltered ranking retained. The same
// generation checks as sampleQuality drop samples that raced a load, so a
// mixed-snapshot comparison never poisons the lifetime aggregate.
func (e *Engine) sampleRecall(ctx context.Context, q Query, alg core.Algorithm, approx []Match, gen uint64) {
	if gen%2 != 0 || e.gen.Load() != gen {
		return
	}
	exactQ := q
	exactQ.ANN = nil
	exact, _, err := e.scatter(ctx, alg, exactQ, nil)
	if err != nil || e.gen.Load() != gen {
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
