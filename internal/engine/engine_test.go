package engine

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"simsub/api"
	"simsub/internal/core"
	"simsub/internal/geo"
	"simsub/internal/sim"
	"simsub/internal/traj"
)

func randTraj(rng *rand.Rand, n int) traj.Trajectory {
	pts := make([]geo.Point, n)
	x, y := rng.Float64()*10, rng.Float64()*10
	for i := range pts {
		x += rng.NormFloat64() * 0.3
		y += rng.NormFloat64() * 0.3
		pts[i] = geo.Point{X: x, Y: y, T: float64(i)}
	}
	return traj.New(pts...)
}

func randSet(rng *rand.Rand, n int) []traj.Trajectory {
	ts := make([]traj.Trajectory, n)
	for i := range ts {
		ts[i] = randTraj(rng, rng.Intn(20)+8)
	}
	return ts
}

// TestEngineMatchesDatabase loads the same trajectories into a sharded
// engine and a flat core.Database with matching pruning semantics and
// checks the rankings coincide across shard counts (the shard-merge
// correctness test). Both index kinds decide each trajectory's candidacy
// on its own, so the flat database is an exact reference for every one.
func TestEngineMatchesDatabase(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	ts := randSet(rng, 60)
	q := randTraj(rng, 6)
	for _, measure := range []string{"dtw", "frechet"} {
		m, err := sim.ByName(measure)
		if err != nil {
			t.Fatal(err)
		}
		alg, _ := core.AlgorithmFor("exacts", m)
		for _, kind := range []IndexKind{ScanAll, RTree} {
			db := core.NewDatabase(ts, kind == RTree)
			want, err := db.TopKPrunedCtx(context.Background(), alg, q, 10, nil, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{1, 3, 8} {
				e := New(Config{Shards: shards, Index: kind})
				e.Add(ts)
				got, cached, err := e.TopK(context.Background(), Query{
					Q: q, K: 10, Measure: measure, Algorithm: "exacts",
				})
				if err != nil {
					t.Fatal(err)
				}
				if cached {
					t.Fatal("fresh engine reported a cache hit")
				}
				if len(got) != len(want) {
					t.Fatalf("shards=%d kind=%d: %d matches, want %d", shards, kind, len(got), len(want))
				}
				for i := range want {
					// engine IDs are assigned densely in Add order, so they
					// equal the database's trajectory indices
					if got[i].TrajID != want[i].TrajIndex || got[i].Result != want[i].Result {
						t.Errorf("shards=%d kind=%d rank %d: got {%d %+v}, want {%d %+v}",
							shards, kind, i, got[i].TrajID, got[i].Result, want[i].TrajIndex, want[i].Result)
					}
				}
			}
		}
	}
}

// TestEngineMoreShardsThanTrajectories: shards left empty by a small
// corpus add nothing to a ranking, with the index and without.
func TestEngineMoreShardsThanTrajectories(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	ts := randSet(rng, 3)
	q := ts[1].Sub(2, 6)
	for _, kind := range []IndexKind{ScanAll, RTree} {
		want := core.NewDatabase(ts, kind == RTree).TopK(core.ExactS{M: sim.DTW{}}, q, 3)
		e := New(Config{Shards: 64, Index: kind})
		if _, err := e.Add(ts); err != nil {
			t.Fatal(err)
		}
		got, _, err := e.TopK(context.Background(), Query{Q: q, K: 3, Measure: "dtw", Algorithm: "exacts"})
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 || len(got) != len(want) {
			t.Fatalf("kind=%d: %d matches, want %d (> 0)", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].TrajID != want[i].TrajIndex || got[i].Result != want[i].Result {
				t.Errorf("kind=%d rank %d: got {%d %+v}, want {%d %+v}", kind, i, got[i].TrajID, got[i].Result, want[i].TrajIndex, want[i].Result)
			}
		}
	}
}

func TestEngineCacheHitAndInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	ts := randSet(rng, 30)
	e := New(Config{Shards: 4, CacheSize: 8})
	e.Add(ts)
	q := Query{Q: randTraj(rng, 5), K: 5, Measure: "dtw", Algorithm: "pss"}

	first, cached, err := e.TopK(context.Background(), q)
	if err != nil || cached {
		t.Fatalf("first query: cached=%v err=%v", cached, err)
	}
	second, cached, err := e.TopK(context.Background(), q)
	if err != nil || !cached {
		t.Fatalf("second query: cached=%v err=%v, want a hit", cached, err)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatal("cached answer differs from computed answer")
		}
	}
	st := e.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 1 || st.Queries != 2 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 2 queries", st)
	}

	// loading more data bumps the generation and purges dead entries: the
	// same query must recompute and the cache must report empty
	e.Add(randSet(rng, 8))
	if n := e.Stats().CacheEntries; n != 0 {
		t.Fatalf("cache holds %d entries after load, want 0 (purged)", n)
	}
	if _, cached, err = e.TopK(context.Background(), q); err != nil || cached {
		t.Fatalf("post-load query: cached=%v err=%v, want a recompute", cached, err)
	}

	// different k is a different cache entry
	q2 := q
	q2.K = 3
	if _, cached, err = e.TopK(context.Background(), q2); err != nil || cached {
		t.Fatalf("different-k query: cached=%v err=%v, want a miss", cached, err)
	}
}

func TestEngineCacheEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	e := New(Config{Shards: 2, CacheSize: 2})
	e.Add(randSet(rng, 10))
	queries := []Query{
		{Q: randTraj(rng, 5), K: 3, Measure: "dtw", Algorithm: "pss"},
		{Q: randTraj(rng, 5), K: 3, Measure: "dtw", Algorithm: "pss"},
		{Q: randTraj(rng, 5), K: 3, Measure: "dtw", Algorithm: "pss"},
	}
	for _, q := range queries {
		if _, _, err := e.TopK(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	if n := e.cache.len(); n != 2 {
		t.Fatalf("cache holds %d entries, want capacity 2", n)
	}
	// the oldest entry was evicted, the newest two still hit
	if _, cached, _ := e.TopK(context.Background(), queries[0]); cached {
		t.Fatal("evicted entry still hit")
	}
	if _, cached, _ := e.TopK(context.Background(), queries[2]); !cached {
		t.Fatal("recent entry missed")
	}
}

func TestEngineCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	e := New(Config{Shards: 4})
	e.Add(randSet(rng, 40))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := e.TopK(ctx, Query{Q: randTraj(rng, 5), K: 5, Measure: "dtw", Algorithm: "exacts"}); err == nil {
		t.Fatal("cancelled TopK returned no error")
	}
	if inflight := e.Stats().InFlight; inflight != 0 {
		t.Fatalf("in-flight = %d after cancellation, want 0", inflight)
	}
}

func TestEngineErrors(t *testing.T) {
	e := New(Config{})
	rng := rand.New(rand.NewSource(64))
	if _, _, err := e.TopK(context.Background(), Query{Q: traj.New(), K: 3, Measure: "dtw", Algorithm: "pss"}); err == nil {
		t.Fatal("empty query accepted")
	}
	if _, _, err := e.TopK(context.Background(), Query{Q: randTraj(rng, 5), K: 3, Measure: "nope", Algorithm: "pss"}); err == nil {
		t.Fatal("unknown measure accepted")
	}
	if _, _, err := e.TopK(context.Background(), Query{Q: randTraj(rng, 5), K: 3, Measure: "dtw", Algorithm: "nope"}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	// Spring and UCR compute DTW regardless of the requested measure: any
	// other pairing would return mislabeled distances and must be rejected
	for _, algo := range []string{"spring", "ucr"} {
		if _, _, err := e.TopK(context.Background(), Query{Q: randTraj(rng, 5), K: 3, Measure: "frechet", Algorithm: algo}); err == nil {
			t.Fatalf("%s accepted with a non-DTW measure", algo)
		}
		if _, err := ResolveNames("dtw", algo); err != nil {
			t.Fatalf("%s rejected with dtw: %v", algo, err)
		}
	}
	// k-validation is uniform: k ≤ 0, k > store size and unknown names all
	// surface as the same typed invalid_argument error shape
	e.Add(randSet(rng, 4))
	for name, q := range map[string]Query{
		"k zero":            {Q: randTraj(rng, 5), K: 0, Measure: "dtw", Algorithm: "pss"},
		"k negative":        {Q: randTraj(rng, 5), K: -2, Measure: "dtw", Algorithm: "pss"},
		"k over store":      {Q: randTraj(rng, 5), K: 5, Measure: "dtw", Algorithm: "pss"},
		"unknown measure":   {Q: randTraj(rng, 5), K: 2, Measure: "nope", Algorithm: "pss"},
		"unknown algorithm": {Q: randTraj(rng, 5), K: 2, Measure: "dtw", Algorithm: "nope"},
		"NaN coordinate": {Q: traj.New(geo.Point{X: math.NaN(), Y: 0}, geo.Point{X: 1, Y: 1}),
			K: 2, Measure: "dtw", Algorithm: "pss"},
		"bad offset":      {Q: randTraj(rng, 5), K: 2, Offset: -1, Measure: "dtw", Algorithm: "pss"},
		"bad limit":       {Q: randTraj(rng, 5), K: 2, Limit: -1, Measure: "dtw", Algorithm: "pss"},
		"misdirected eps": {Q: randTraj(rng, 5), K: 2, Measure: "dtw", Algorithm: "pss", Params: Params{EDREps: 0.5}},
		"misdirected delay": {Q: randTraj(rng, 5), K: 2, Measure: "dtw", Algorithm: "pss",
			Params: Params{POSDelay: 3}},
		"band out of range": {Q: randTraj(rng, 5), K: 2, Measure: "cdtw", Algorithm: "pss",
			Params: Params{CDTWBand: 1.5}},
	} {
		_, _, err := e.TopK(context.Background(), q)
		var ae *api.Error
		if !errors.As(err, &ae) || ae.Code != api.CodeInvalidArgument {
			t.Errorf("%s: err=%v, want typed invalid_argument", name, err)
		}
	}
}

func TestEngineTrajLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	ts := randSet(rng, 23)
	e := New(Config{Shards: 4})
	ids, err := e.Add(ts)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(ts) || e.Len() != len(ts) {
		t.Fatalf("ids=%d len=%d, want %d", len(ids), e.Len(), len(ts))
	}
	for i, id := range ids {
		got, ok := e.Traj(id)
		if !ok || !got.Equal(ts[i]) {
			t.Fatalf("Traj(%d): ok=%v, mismatch=%v", id, ok, !got.Equal(ts[i]))
		}
	}
	if _, ok := e.Traj(len(ts)); ok {
		t.Fatal("out-of-range ID resolved")
	}
	if _, ok := e.Traj(-1); ok {
		t.Fatal("negative ID resolved")
	}
}

// TestEngineConcurrentQueries hammers one engine from many goroutines while
// verifying every answer against a reference database.
func TestEngineConcurrentQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	ts := randSet(rng, 50)
	db := core.NewDatabase(ts, false)
	e := New(Config{Shards: 4, Workers: 4, CacheSize: 16, Index: ScanAll})
	e.Add(ts)
	queries := make([]traj.Trajectory, 8)
	for i := range queries {
		queries[i] = randTraj(rng, 5)
	}
	m, _ := sim.ByName("dtw")
	alg, _ := core.AlgorithmFor("pss", m)
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				q := queries[(g+rep)%len(queries)]
				got, _, err := e.TopK(context.Background(), Query{Q: q, K: 5, Measure: "dtw", Algorithm: "pss"})
				if err != nil {
					errs <- err.Error()
					return
				}
				want := db.TopK(alg, q, 5)
				if len(got) != len(want) {
					errs <- "length mismatch"
					return
				}
				for i := range want {
					if got[i].TrajID != want[i].TrajIndex || got[i].Result != want[i].Result {
						errs <- "ranking mismatch"
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestCacheDigestPinned pins the result cache's query digest to the values
// it had when the engine kept its own copy of the content hash.
func TestCacheDigestPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	e := New(Config{})
	for i, want := range []uint64{0xe91b037bef72d568, 0x1956841684f8a3dc, 0xd911e4f95fb1c247, 0x3c60394da404b338} {
		q := randTraj(rng, 5+i)
		if got := e.cacheKeyFor(Query{Q: q, K: 3}, 0).digest; got != want {
			t.Errorf("query %d: cache digest %#x, want %#x", i, got, want)
		}
	}
}
