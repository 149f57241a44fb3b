package engine

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"simsub/api"
	"simsub/internal/core"
	"simsub/internal/geo"
	"simsub/internal/sim"
)

// TestEngineFilterPushdown checks the spatial filter's semantics against a
// first-principles reference: with scan-all shards, the filtered ranking
// must equal the unfiltered full ranking restricted to trajectories whose
// MBR intersects the filter, truncated to k.
func TestEngineFilterPushdown(t *testing.T) {
	for _, kind := range []IndexKind{ScanAll, RTree} {
		rng := rand.New(rand.NewSource(90))
		ts := randSet(rng, 40)
		e := New(Config{Shards: 4, Index: kind})
		e.Add(ts)
		q := randTraj(rng, 6)
		filter := geo.Rect{MinX: 2, MinY: 2, MaxX: 9, MaxY: 9}

		got, _, err := e.TopK(context.Background(), Query{
			Q: q, K: 10, Measure: "dtw", Algorithm: "pss", Filter: &filter,
		})
		if err != nil {
			t.Fatalf("index %v: filtered TopK: %v", kind, err)
		}
		// every answer must come from a filter-intersecting trajectory
		for _, m := range got {
			tr, _ := e.Traj(m.TrajID)
			if !tr.MBR().Intersects(filter) {
				t.Fatalf("index %v: match %d violates the filter", kind, m.TrajID)
			}
		}
		if kind != ScanAll {
			continue // similarity pruning makes the flat reference inexact
		}
		full, _, err := e.TopK(context.Background(), Query{
			Q: q, K: e.Len(), Measure: "dtw", Algorithm: "pss",
		})
		if err != nil {
			t.Fatal(err)
		}
		var want []Match
		for _, m := range full {
			tr, _ := e.Traj(m.TrajID)
			if tr.MBR().Intersects(filter) {
				want = append(want, m)
			}
		}
		if len(want) > 10 {
			want = want[:10]
		}
		if len(got) != len(want) {
			t.Fatalf("filtered ranking has %d matches, want %d", len(got), len(want))
		}
		if len(want) == 0 {
			t.Fatal("degenerate test: filter excluded everything")
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("filtered rank %d: %+v, want %+v", i, got[i], want[i])
			}
		}
	}
}

// TestEngineDistinct loads the same data twice (distinct global IDs, equal
// points) and checks distinct collapsing keeps exactly one representative
// per duplicated answer.
func TestEngineDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	ts := randSet(rng, 12)
	e := New(Config{Shards: 4, Index: ScanAll})
	e.Add(ts)
	e.Add(ts) // duplicate load: 24 stored trajectories, 12 distinct contents
	q := randTraj(rng, 5)

	plain, _, err := e.TopK(context.Background(), Query{Q: q, K: 24, Measure: "dtw", Algorithm: "exacts"})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != 24 {
		t.Fatalf("unfiltered ranking has %d matches, want 24", len(plain))
	}

	got, _, err := e.TopK(context.Background(), Query{
		Q: q, K: 24, Measure: "dtw", Algorithm: "exacts", Distinct: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 12 {
		t.Fatalf("distinct ranking has %d matches, want 12", len(got))
	}
	// distinct must equal the plain ranking with duplicate contents
	// dropped, preserving rank order
	var want []Match
	seen := map[string]bool{}
	for _, m := range plain {
		tr, _ := e.Traj(m.TrajID)
		key := fmt.Sprintf("%v", tr.Sub(m.Result.Interval.I, m.Result.Interval.J).Points)
		if seen[key] {
			continue
		}
		seen[key] = true
		want = append(want, m)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("distinct rank %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestEnginePaging checks offset/limit windows over one ranking, including
// pages served from the cache.
func TestEnginePaging(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	e := New(Config{Shards: 4, Index: ScanAll, CacheSize: 8})
	e.Add(randSet(rng, 30))
	q := randTraj(rng, 5)
	base := Query{Q: q, K: 10, Measure: "dtw", Algorithm: "pss"}

	full, cached, err := e.TopK(context.Background(), base)
	if err != nil || cached || len(full) != 10 {
		t.Fatalf("full ranking: %d matches cached=%v err=%v", len(full), cached, err)
	}
	cases := []struct {
		offset, limit int
		want          []Match
	}{
		{0, 0, full},
		{3, 4, full[3:7]},
		{3, 0, full[3:]},
		{0, 25, full},
		{9, 5, full[9:]},
		{10, 5, nil},
		{100, 0, nil},
	}
	for _, tc := range cases {
		pq := base
		pq.Offset, pq.Limit = tc.offset, tc.limit
		got, cached, err := e.TopK(context.Background(), pq)
		if err != nil {
			t.Fatalf("offset=%d limit=%d: %v", tc.offset, tc.limit, err)
		}
		// every page after the first call is a window over the one cached
		// full ranking
		if !cached {
			t.Errorf("offset=%d limit=%d: not served from cache", tc.offset, tc.limit)
		}
		if len(got) != len(tc.want) {
			t.Fatalf("offset=%d limit=%d: %d matches, want %d", tc.offset, tc.limit, len(got), len(tc.want))
		}
		for i := range tc.want {
			if got[i] != tc.want[i] {
				t.Fatalf("offset=%d limit=%d rank %d differs", tc.offset, tc.limit, i)
			}
		}
	}
}

// TestEngineQueryParams checks per-query parameter overrides change the
// search exactly as constructing the parameterized measure/algorithm
// directly would.
func TestEngineQueryParams(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	ts := randSet(rng, 20)
	e := New(Config{Shards: 4, Index: ScanAll})
	e.Add(ts)
	db := core.NewDatabase(ts, false)
	q := randTraj(rng, 5)

	check := func(name string, eq Query, alg core.Algorithm) {
		t.Helper()
		got, _, err := e.TopK(context.Background(), eq)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := db.TopK(alg, q, eq.K)
		if len(got) != len(want) {
			t.Fatalf("%s: %d matches, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i].TrajID != want[i].TrajIndex || got[i].Result != want[i].Result {
				t.Fatalf("%s: rank %d is %+v, want %+v", name, i, got[i], want[i])
			}
		}
	}

	check("edr eps",
		Query{Q: q, K: 5, Measure: "edr", Algorithm: "exacts", Params: Params{EDREps: 0.7}},
		core.ExactS{M: sim.EDR{Eps: 0.7}})
	check("pos-d delay",
		Query{Q: q, K: 5, Measure: "dtw", Algorithm: "pos-d", Params: Params{POSDelay: 9}},
		core.POSD{M: sim.DTW{}, D: 9})

	// parameter overrides must key the cache: same names, different eps
	// must not collide
	ce := New(Config{Shards: 2, Index: ScanAll, CacheSize: 8})
	ce.Add(ts)
	a, _, _ := ce.TopK(context.Background(), Query{Q: q, K: 3, Measure: "edr", Algorithm: "exacts", Params: Params{EDREps: 0.7}})
	b, cached, _ := ce.TopK(context.Background(), Query{Q: q, K: 3, Measure: "edr", Algorithm: "exacts", Params: Params{EDREps: 0.1}})
	if cached {
		t.Fatal("different edr_eps served from the same cache entry")
	}
	if len(a) == len(b) {
		same := true
		for i := range a {
			if a[i].Result.Dist != b[i].Result.Dist {
				same = false
				break
			}
		}
		if same {
			t.Log("warning: eps 0.7 and 0.1 produced identical distances; weak data")
		}
	}
}

// TestEngineBatchQuery exercises the api.Searcher adapter: per-spec
// results in order, error isolation, and agreement with direct TopK.
func TestEngineBatchQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	ts := randSet(rng, 25)
	e := New(Config{Shards: 4, Index: ScanAll})
	e.Add(ts)

	specs := make([]api.QuerySpec, 0, 6)
	queries := make([]Query, 0, 6)
	for i := 0; i < 5; i++ {
		q := randTraj(rng, 4+i)
		specs = append(specs, api.QuerySpec{Query: api.FromTraj(q), K: 4, Measure: "dtw"})
		queries = append(queries, Query{Q: q, K: 4, Measure: "dtw", Algorithm: "pss"})
	}
	specs = append(specs, api.QuerySpec{Query: specs[0].Query, K: 0}) // invalid lane

	resp, err := e.Query(context.Background(), api.Query{Specs: specs})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(specs) {
		t.Fatalf("%d results for %d specs", len(resp.Results), len(specs))
	}
	for i, q := range queries {
		res := resp.Results[i]
		if res.Error != nil {
			t.Fatalf("spec %d failed: %v", i, res.Error)
		}
		want, _, err := e.TopK(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matches) != len(want) || res.Total != len(want) {
			t.Fatalf("spec %d: %d matches total %d, want %d", i, len(res.Matches), res.Total, len(want))
		}
		for j, m := range res.Matches {
			if m != MatchToAPI(want[j]) {
				t.Fatalf("spec %d rank %d: %+v, want %+v", i, j, m, MatchToAPI(want[j]))
			}
		}
	}
	bad := resp.Results[len(specs)-1]
	if bad.Error == nil || bad.Error.Code != api.CodeInvalidArgument || len(bad.Matches) != 0 {
		t.Fatalf("invalid lane: %+v, want isolated invalid_argument", bad)
	}

	if _, err := e.Query(context.Background(), api.Query{}); api.FromError(err).Code != api.CodeInvalidArgument {
		t.Fatalf("empty batch: %v, want invalid_argument", err)
	}
}
