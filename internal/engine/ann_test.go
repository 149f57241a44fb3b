package engine

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"simsub/api"
	"simsub/internal/core"
	"simsub/internal/geo"
	"simsub/internal/nn"
	"simsub/internal/storage"
	"simsub/internal/t2vec"
	"simsub/internal/traj"
)

// Tests for the ANN prefilter and the encoder registry: the embedding
// index proposes a coarse candidate list whose members are reranked by the
// unchanged exact cascade, the encoder hot-swaps through the same
// fingerprint/cache machinery as the policy registry, and persisted
// embeddings let recovery skip re-encoding.

func annEngine(t *testing.T, shards, n int, seed int64) (*Engine, []traj.Trajectory) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ts := randSet(rng, n)
	e := New(Config{Shards: shards, Index: ScanAll, CacheSize: 64})
	if _, err := e.SetEncoder(t2vec.NewRandomModel(8, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Add(ts); err != nil {
		t.Fatal(err)
	}
	return e, ts
}

func TestANNRequiresEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	e := New(Config{Shards: 2})
	if _, err := e.Add(randSet(rng, 20)); err != nil {
		t.Fatal(err)
	}
	_, _, err := e.TopK(context.Background(), Query{
		Q: randTraj(rng, 6), K: 3, Measure: "dtw", Algorithm: "exacts",
		ANN: &ANNParams{Candidates: 10, Probes: 2},
	})
	if err == nil {
		t.Fatal("ann query accepted without an encoder")
	}
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeInvalidArgument {
		t.Fatalf("error = %v, want typed invalid_argument", err)
	}
}

func TestANNFullBudgetMatchesExact(t *testing.T) {
	// a candidate budget covering the whole corpus must reproduce the exact
	// ranking byte-for-byte: the prefilter falls back to a full scan when
	// the buckets cannot fill the budget, and the rerank is the same
	// threshold pipeline either way
	e, ts := annEngine(t, 3, 80, 81)
	rng := rand.New(rand.NewSource(82))
	q := randTraj(rng, 6)
	for _, measure := range []string{"dtw", "frechet"} {
		want, _, err := e.TopK(context.Background(), Query{
			Q: q, K: 10, Measure: measure, Algorithm: "exacts",
		})
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := e.TopK(context.Background(), Query{
			Q: q, K: 10, Measure: measure, Algorithm: "exacts",
			ANN: &ANNParams{Candidates: len(ts), Probes: 4},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: full-budget ann ranking diverges from exact:\n got %+v\nwant %+v", measure, got, want)
		}
	}
}

func TestANNPrefilterScansFewerCandidates(t *testing.T) {
	e, ts := annEngine(t, 2, 200, 83)
	rng := rand.New(rand.NewSource(84))
	q := randTraj(rng, 6)
	before := e.Stats().CandidatesSeen
	if _, _, err := e.TopK(context.Background(), Query{
		Q: q, K: 5, Measure: "dtw", Algorithm: "exacts",
		ANN: &ANNParams{Candidates: 20, Probes: 2},
	}); err != nil {
		t.Fatal(err)
	}
	seen := e.Stats().CandidatesSeen - before
	if seen > int64(len(ts)/2) {
		t.Errorf("ann prefilter scanned %d of %d candidates; want a coarse subset", seen, len(ts))
	}
	if seen == 0 {
		t.Error("ann prefilter scanned no candidates at all")
	}
	if e.Stats().ANNQueries == 0 {
		t.Error("ann_queries counter never moved")
	}
}

// TestANNEmptyAnswerScansNothing pins the prefilter's empty answer: an
// index that proposes nothing — ann.Index.Search answers nil for a query
// embedding it cannot compare — must leave the shard scanning nothing, never
// falling back to the spatial candidates.
func TestANNEmptyAnswerScansNothing(t *testing.T) {
	e, _ := annEngine(t, 2, 40, 85)
	q := Query{Q: randTraj(rand.New(rand.NewSource(86)), 6), K: 3, Measure: "dtw", Algorithm: "exacts"}
	alg, err := e.Resolve(q)
	if err != nil {
		t.Fatal(err)
	}
	annq := &annQuery{qEmb: []float64{1}, want: 10, probes: 2} // wrong dimension
	for si, s := range e.cur.Load().shards {
		if ids := s.ann.Search(annq.qEmb, annq.want, annq.probes); ids != nil {
			t.Fatalf("shard %d: Search answered %v for a mismatched embedding, want nil", si, ids)
		}
		var st core.PruneStats
		col := core.NewCollector(q.K)
		err := s.scan(context.Background(), alg, q, col, &st, annq, func(m core.Match) error {
			col.Offer(m)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if st != (core.PruneStats{}) || len(col.Sorted()) != 0 {
			t.Fatalf("shard %d: an empty prefilter answer scanned %+v and ranked %v", si, st, col.Sorted())
		}
	}
}

func TestEmbedAlgorithm(t *testing.T) {
	e, _ := annEngine(t, 2, 50, 85)
	rng := rand.New(rand.NewSource(86))
	q := randTraj(rng, 6)
	ms, _, err := e.TopK(context.Background(), Query{Q: q, K: 5, Measure: "t2vec", Algorithm: "embed"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 5 {
		t.Fatalf("embed ranking has %d matches, want 5", len(ms))
	}
	// embed is pinned to t2vec
	if _, _, err := e.TopK(context.Background(), Query{Q: q, K: 5, Measure: "dtw", Algorithm: "embed"}); err == nil {
		t.Error("embed accepted under measure dtw")
	}
	// and requires a registered encoder
	bare := New(Config{Shards: 1})
	if _, err := bare.Add(randSet(rng, 10)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := bare.TopK(context.Background(), Query{Q: q, K: 2, Measure: "t2vec", Algorithm: "embed"}); err == nil {
		t.Error("embed accepted without an encoder")
	}
}

func TestEncoderSwapChangesFingerprintAndCacheKey(t *testing.T) {
	e, ts := annEngine(t, 2, 60, 87)
	rng := rand.New(rand.NewSource(88))
	q := Query{
		Q: randTraj(rng, 6), K: 5, Measure: "dtw", Algorithm: "exacts",
		ANN: &ANNParams{Candidates: len(ts), Probes: 4},
	}
	info1, ok := e.Encoder()
	if !ok {
		t.Fatal("encoder not registered")
	}
	if _, _, err := e.TopK(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if _, cached, err := e.TopK(context.Background(), q); err != nil || !cached {
		t.Fatalf("repeat ann query not served from cache (cached=%v err=%v)", cached, err)
	}
	// measure t2vec scores with the registered encoder, so a swap changes
	// a t2vec/pss ranking and the key it is cached under
	tq := Query{Q: randTraj(rng, 6), K: 5, Measure: "t2vec", Algorithm: "pss"}
	rank1, _, err := e.TopK(context.Background(), tq)
	if err != nil {
		t.Fatal(err)
	}
	key1 := e.cacheKeyFor(tq, e.cur.Load().id)

	info2, err := e.SetEncoder(t2vec.NewRandomModel(8, 99))
	if err != nil {
		t.Fatal(err)
	}
	if info1.Fingerprint == info2.Fingerprint {
		t.Fatal("different encoders share a fingerprint")
	}
	// the swap re-embedded the corpus and purged the cache: the same query
	// must be recomputed under the new encoder, never served stale
	if _, cached, err := e.TopK(context.Background(), q); err != nil {
		t.Fatal(err)
	} else if cached {
		t.Error("post-swap ann query served from the pre-swap cache")
	}
	rank2, cached, err := e.TopK(context.Background(), tq)
	if err != nil || cached {
		t.Fatalf("post-swap t2vec/pss query: cached=%v err=%v", cached, err)
	}
	if reflect.DeepEqual(rank1, rank2) {
		t.Errorf("t2vec/pss ranking unchanged by an encoder swap: %v", rank1)
	}
	if key2 := e.cacheKeyFor(tq, e.cur.Load().id); key2.gen == key1.gen || key2 == key1 {
		t.Errorf("t2vec/pss cache key unchanged by an encoder swap: %+v", key1)
	}
	st := e.Stats()
	if !st.EncoderLoaded || st.EncoderFingerprint != info2.Fingerprint {
		t.Errorf("stats report encoder %q loaded=%v, want %q", st.EncoderFingerprint, st.EncoderLoaded, info2.Fingerprint)
	}
}

// TestSetEncoderRejectsUnusableModel: a model whose encoder does not fit
// its features is refused before it is installed, so re-embedding the
// corpus never runs it and the registered encoder stays in place.
func TestSetEncoderRejectsUnusableModel(t *testing.T) {
	e, _ := annEngine(t, 2, 30, 91)
	before, _ := e.Encoder()
	bad := t2vec.New(nn.NewGRU(1, 8, rand.New(rand.NewSource(92))), geo.Rect{MaxX: 1, MaxY: 1})
	var ae *api.Error
	if _, err := e.SetEncoder(bad); !errors.As(err, &ae) || ae.Code != api.CodeInvalidArgument {
		t.Fatalf("SetEncoder(one-input coordinate model) = %v, want invalid_argument", err)
	}
	if after, ok := e.Encoder(); !ok || after.Fingerprint != before.Fingerprint {
		t.Fatalf("registration changed from %q to %q (ok=%v)", before.Fingerprint, after.Fingerprint, ok)
	}
}

func TestRecallTelemetry(t *testing.T) {
	e, ts := annEngine(t, 2, 120, 89)
	e.cfg.RecallSample = 1 // sample every uncached ann query
	rng := rand.New(rand.NewSource(90))
	for i := 0; i < 5; i++ {
		if _, _, err := e.TopK(context.Background(), Query{
			Q: randTraj(rng, 6), K: 5, Measure: "dtw", Algorithm: "exacts",
			ANN: &ANNParams{Candidates: len(ts) / 2, Probes: 2},
		}); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.RecallSamples == 0 {
		t.Fatal("no recall samples recorded at sample rate 1")
	}
	if st.MeanRecall < 0 || st.MeanRecall > 1 {
		t.Fatalf("mean recall %v outside [0,1]", st.MeanRecall)
	}
}

func TestEmbeddingPersistenceReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	ts := randSet(rng, 80)
	q := randTraj(rng, 6)
	dir := t.TempDir()
	enc := t2vec.NewRandomModel(8, 7)

	st, _, err := storage.Open(dir, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{Shards: 2, Index: ScanAll})
	if _, err := e.SetEncoder(enc); err != nil {
		t.Fatal(err)
	}
	if err := e.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Add(ts); err != nil {
		t.Fatal(err)
	}
	annq := Query{
		Q: q, K: 5, Measure: "dtw", Algorithm: "exacts",
		ANN: &ANNParams{Candidates: len(ts), Probes: 4},
	}
	want, _, err := e.TopK(context.Background(), annq)
	if err != nil {
		t.Fatal(err)
	}
	if st.EmbeddingCount() != len(ts) {
		t.Fatalf("store holds %d embeddings, want %d", st.EmbeddingCount(), len(ts))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// recover with the same encoder registered BEFORE the attach, the way
	// simsubd -encoder boots: the snapshot's embeddings carry the matching
	// fingerprint and are reused instead of re-encoded
	st2, _, err := storage.Open(dir, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if fp, _, ok := st2.Embeddings(); !ok {
		t.Fatal("recovered store lost its embeddings")
	} else if wantFP, _ := EncoderFingerprint(enc); fp != wantFP {
		t.Fatalf("recovered embedding fingerprint %x, want %x", fp, wantFP)
	}
	e2 := New(Config{Shards: 2, Index: ScanAll})
	if _, err := e2.SetEncoder(enc); err != nil {
		t.Fatal(err)
	}
	if err := e2.AttachStore(st2); err != nil {
		t.Fatal(err)
	}
	got, _, err := e2.TopK(context.Background(), annq)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered ann ranking diverges:\n got %+v\nwant %+v", got, want)
	}
}
