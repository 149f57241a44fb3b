package core

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"simsub/internal/sim"
	"simsub/internal/traj"
)

func smallDB(rng *rand.Rand, n int) []traj.Trajectory {
	ts := make([]traj.Trajectory, n)
	for i := range ts {
		ts[i] = randTraj(rng, rng.Intn(15)+5)
		ts[i].ID = i
	}
	return ts
}

func TestTopKOrderingAndSize(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	ts := smallDB(rng, 20)
	db := NewDatabase(ts, false)
	q := randTraj(rng, 5)
	top := db.TopK(ExactS{M: sim.DTW{}}, q, 5)
	if len(top) != 5 {
		t.Fatalf("got %d matches", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i-1].Result.Dist > top[i].Result.Dist {
			t.Fatal("matches not sorted by distance")
		}
	}
	// k larger than the database returns everything
	all := db.TopK(ExactS{M: sim.DTW{}}, q, 100)
	if len(all) != 20 {
		t.Errorf("got %d matches, want 20", len(all))
	}
}

func TestTopKMatchesBruteRanking(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ts := smallDB(rng, 15)
	db := NewDatabase(ts, false)
	q := randTraj(rng, 4)
	alg := ExactS{M: sim.DTW{}}
	top := db.TopK(alg, q, 3)
	// independent ranking
	dists := make([]float64, len(ts))
	for i, tr := range ts {
		dists[i] = alg.Search(tr, q).Dist
	}
	sort.Float64s(dists)
	for i := 0; i < 3; i++ {
		if top[i].Result.Dist != dists[i] {
			t.Errorf("rank %d: %v, want %v", i, top[i].Result.Dist, dists[i])
		}
	}
}

func TestIndexPruningConsistency(t *testing.T) {
	// spatially clustered database: indexed and unindexed search agree on
	// the best match whenever the best trajectory's MBR overlaps the query's
	rng := rand.New(rand.NewSource(32))
	ts := smallDB(rng, 30)
	plain := NewDatabase(ts, false)
	indexed := NewDatabase(ts, true)
	q := ts[7].Sub(1, 3) // query overlapping trajectory 7
	alg := ExactS{M: sim.DTW{}}
	bestPlain, ok1 := plain.Best(alg, q)
	bestIdx, ok2 := indexed.Best(alg, q)
	if !ok1 || !ok2 {
		t.Fatal("no matches found")
	}
	if bestIdx.Result.Dist > bestPlain.Result.Dist+1e-9 {
		// pruning may only lose candidates whose MBR misses the query;
		// the best here overlaps by construction
		t.Errorf("indexed best %v worse than plain %v", bestIdx.Result.Dist, bestPlain.Result.Dist)
	}
}

func TestCandidatesWithoutIndexIsEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	ts := smallDB(rng, 10)
	db := NewDatabase(ts, false)
	c := db.Candidates(randTraj(rng, 3), nil)
	if len(c) != 10 {
		t.Errorf("got %d candidates", len(c))
	}
}

func TestCandidatesWithIndexPrunes(t *testing.T) {
	// two far-apart clusters: a query in one cluster must prune the other
	rng := rand.New(rand.NewSource(34))
	var ts []traj.Trajectory
	for i := 0; i < 10; i++ {
		ts = append(ts, randTraj(rng, 8)) // cluster around origin-ish
	}
	for i := 0; i < 10; i++ {
		ts = append(ts, randTraj(rng, 8).Translate(1e6, 1e6))
	}
	db := NewDatabase(ts, true)
	q := randTraj(rng, 4)
	c := db.Candidates(q, nil)
	if len(c) == 0 || len(c) > 15 {
		t.Errorf("pruning ineffective: %d candidates of 20", len(c))
	}
	for _, ci := range c {
		if ci >= 10 {
			t.Errorf("far-cluster trajectory %d not pruned", ci)
		}
	}
}

func TestBestEmptyDatabase(t *testing.T) {
	db := NewDatabase(nil, false)
	if _, ok := db.Best(ExactS{M: sim.DTW{}}, traj.FromXY(0, 0)); ok {
		t.Error("empty database should return no match")
	}
	if db.Len() != 0 {
		t.Error("Len should be 0")
	}
}

func TestAlgorithmFor(t *testing.T) {
	for _, n := range []string{"exacts", "sizes", "pss", "pos", "pos-d"} {
		a, ok := AlgorithmFor(n, sim.DTW{})
		if !ok || a == nil {
			t.Errorf("AlgorithmFor(%q) failed", n)
		}
	}
	// the competitors are built by type, never by name
	for _, n := range []string{"nope", "spring", "ucr", "random-s", "randoms", "simtra"} {
		if _, ok := AlgorithmFor(n, sim.DTW{}); ok {
			t.Errorf("AlgorithmFor(%q) should fail", n)
		}
	}
}

func TestDatabaseTrajAccessor(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	ts := smallDB(rng, 5)
	db := NewDatabase(ts, true)
	for i := range ts {
		if !db.Traj(i).Equal(ts[i]) {
			t.Errorf("Traj(%d) mismatched", i)
		}
	}
}

// TestDatabaseSurfacePinned compares *Database's exported method set with an
// explicit allow-list, so a new scan or top-k spelling cannot arrive
// unnoticed.
func TestDatabaseSurfacePinned(t *testing.T) {
	allowed := []string{
		// the store, and the one way it grows (ISSUE 24: flat-cost ingest)
		"Len", "Traj", "Meta", "Contents", "Append",
		// candidate generation: index pruning and the region filter
		"Candidates",
		// the one threshold scan, the one top-k on it, their conveniences
		// (parallelism is the engine's: its shards share one Collector)
		"ScanPrunedSourceCtx", "TopKPrunedCtx", "TopK", "Best",
		// the unpruned reference of the equivalence suites
		"ScanFilteredCtx",
	}
	var got []string
	typ := reflect.TypeOf(&Database{})
	for i := 0; i < typ.NumMethod(); i++ {
		got = append(got, typ.Method(i).Name)
	}
	sort.Strings(allowed)
	if !slices.Equal(got, allowed) {
		t.Fatalf("exported methods of *Database changed:\ngot  %v\nwant %v\n"+
			"ISSUE 22 (one scan pipeline) cut this surface to one streaming threshold scan and one top-k on it, and "+
			"ISSUE 24 (flat-cost ingest) added Append as the one way a Database grows; "+
			"the engine's shard scatter is the one parallel top-k, so no second scheduler lives on Database; "+
			"give an existing method a parameter rather than adding another TopKFooBarCtx, and edit this list only with that argument made.",
			got, allowed)
	}
}
