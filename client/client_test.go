package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"simsub/api"
	"simsub/client"
	"simsub/internal/engine"
	"simsub/internal/geo"
	"simsub/internal/rl"
	"simsub/internal/server"
	"simsub/internal/sim"
	"simsub/internal/traj"
)

func randWalk(rng *rand.Rand, n int) traj.Trajectory {
	pts := make([]geo.Point, n)
	x, y := rng.Float64()*10, rng.Float64()*10
	for i := range pts {
		x += rng.NormFloat64() * 0.3
		y += rng.NormFloat64() * 0.3
		pts[i] = geo.Point{X: x, Y: y, T: float64(i)}
	}
	return traj.New(pts...)
}

func newServedEngine(t *testing.T, cfg engine.Config) (*client.Client, *engine.Engine) {
	t.Helper()
	eng := engine.New(cfg)
	srv := httptest.NewServer(server.New(eng, server.Options{}))
	t.Cleanup(srv.Close)
	return client.New(srv.URL), eng
}

// TestClientEquivalence is the interchangeability satellite: a /v2/query
// batch issued through the HTTP client must return rankings byte-identical
// to N direct Engine.TopK calls, under DTW and Fréchet, with the result
// cache on and off.
func TestClientEquivalence(t *testing.T) {
	for _, cacheSize := range []int{0, 64} {
		rng := rand.New(rand.NewSource(100))
		c, eng := newServedEngine(t, engine.Config{Shards: 4, CacheSize: cacheSize, Index: engine.ScanAll})

		// load through the client, as a remote program would
		data := make([]api.Trajectory, 200)
		for i := range data {
			data[i] = api.FromTraj(randWalk(rng, rng.Intn(12)+6))
		}
		lr, err := c.Load(context.Background(), data)
		if err != nil || lr.Loaded != len(data) {
			t.Fatalf("cache=%d: load: %+v err=%v", cacheSize, lr, err)
		}

		var specs []api.QuerySpec
		for _, measure := range []string{"dtw", "frechet"} {
			for i := 0; i < 4; i++ {
				specs = append(specs, api.QuerySpec{
					Query: api.FromTraj(randWalk(rng, 5)), K: 6, Measure: measure, Algorithm: "pss",
				})
			}
		}

		// two rounds so the cache-on config also compares its hit path
		for round := 0; round < 2; round++ {
			resp, err := c.Query(context.Background(), api.Query{Specs: specs})
			if err != nil {
				t.Fatalf("cache=%d round %d: %v", cacheSize, round, err)
			}
			for i, spec := range specs {
				if resp.Results[i].Error != nil {
					t.Fatalf("spec %d: %v", i, resp.Results[i].Error)
				}
				q, aerr := spec.Query.ToTraj()
				if aerr != nil {
					t.Fatal(aerr)
				}
				direct, _, err := eng.TopK(context.Background(), engine.Query{
					Q: q, K: spec.K, Measure: spec.Measure, Algorithm: "pss",
				})
				if err != nil {
					t.Fatal(err)
				}
				got, _ := json.Marshal(resp.Results[i].Matches)
				want, _ := json.Marshal(engine.MatchesToAPI(direct))
				if string(got) != string(want) {
					t.Fatalf("cache=%d round %d spec %d (%s): client ranking differs from Engine.TopK:\n got %s\nwant %s",
						cacheSize, round, i, spec.Measure, got, want)
				}
			}
		}
	}
}

// TestSearcherSwap drives the same code path against the in-process engine
// and the remote client through the api.Searcher interface and checks the
// answers coincide — the "swap without code changes" guarantee.
func TestSearcherSwap(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	c, eng := newServedEngine(t, engine.Config{Shards: 3, Index: engine.ScanAll})
	ts := make([]traj.Trajectory, 80)
	for i := range ts {
		ts[i] = randWalk(rng, 10)
	}
	eng.Add(ts)

	req := api.Query{Specs: []api.QuerySpec{
		{Query: api.FromTraj(randWalk(rng, 5)), K: 4},
		{Query: api.FromTraj(randWalk(rng, 7)), K: 2, Measure: "frechet", Algorithm: "exacts"},
	}}
	run := func(s api.Searcher) [][]api.Match {
		t.Helper()
		resp, err := s.Query(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		out := make([][]api.Match, len(resp.Results))
		for i, r := range resp.Results {
			if r.Error != nil {
				t.Fatalf("spec %d: %v", i, r.Error)
			}
			out[i] = r.Matches
		}
		return out
	}
	local := run(eng) // *engine.Engine as api.Searcher
	remote := run(c)  // *client.Client as api.Searcher
	if !reflect.DeepEqual(local, remote) {
		t.Fatalf("swapped searchers disagree:\nlocal  %+v\nremote %+v", local, remote)
	}
}

// TestClientStream checks the client-side NDJSON decoding: provisional
// matches arrive through emit and the summary equals the blocking answer.
func TestClientStream(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	c, eng := newServedEngine(t, engine.Config{Shards: 4, Index: engine.ScanAll})
	ts := make([]traj.Trajectory, 120)
	for i := range ts {
		ts[i] = randWalk(rng, 9)
	}
	eng.Add(ts)

	spec := api.QuerySpec{Query: api.FromTraj(randWalk(rng, 5)), K: 7}
	var emitted []api.Match
	sum, err := c.QueryStream(context.Background(), spec, func(m api.Match) error {
		emitted = append(emitted, m)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Matches) != 7 || sum.Total != 7 || sum.Emitted != len(emitted) {
		t.Fatalf("summary %+v, emitted %d", sum, len(emitted))
	}
	// the stream's final ranking equals the batch answer for the same spec
	resp, err := c.Query(context.Background(), api.Query{Specs: []api.QuerySpec{spec}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sum.Matches, resp.Results[0].Matches) {
		t.Fatalf("stream summary differs from batch answer:\n%+v\n%+v", sum.Matches, resp.Results[0].Matches)
	}
	// every final match streamed out provisionally
	seen := map[api.Match]bool{}
	for _, m := range emitted {
		seen[m] = true
	}
	for _, m := range sum.Matches {
		if !seen[m] {
			t.Fatalf("final match %+v never emitted", m)
		}
	}
}

// TestClientTypedErrors checks server-side failures surface as typed
// *api.Error values clients can branch on.
func TestClientTypedErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	c, eng := newServedEngine(t, engine.Config{})
	eng.Add([]traj.Trajectory{randWalk(rng, 8)})

	// empty trajectory at the wire boundary (NaN/Inf can't even be encoded
	// as JSON — strict clients reject them before the wire; the server-side
	// guard for non-strict callers is covered by the api and engine tests)
	_, err := c.Load(context.Background(), []api.Trajectory{{}})
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeInvalidArgument {
		t.Fatalf("empty-trajectory load: %v, want typed invalid_argument", err)
	}

	// per-spec lane error inside a batch
	resp, err := c.Query(context.Background(), api.Query{Specs: []api.QuerySpec{
		{Query: api.FromTraj(randWalk(rng, 4)), K: 0},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if e := resp.Results[0].Error; e == nil || e.Code != api.CodeInvalidArgument {
		t.Fatalf("k=0 lane: %+v, want invalid_argument", resp.Results[0])
	}

	// stream-request validation error arrives as the typed envelope
	_, err = c.QueryStream(context.Background(),
		api.QuerySpec{Query: api.FromTraj(randWalk(rng, 4)), K: -1},
		func(api.Match) error { return nil })
	if !errors.As(err, &ae) || ae.Code != api.CodeInvalidArgument {
		t.Fatalf("stream k=-1: %v, want typed invalid_argument", err)
	}

	// not_found for an unassigned trajectory ID
	_, err = c.GetTrajectory(context.Background(), 99)
	if !errors.As(err, &ae) || ae.Code != api.CodeNotFound {
		t.Fatalf("missing trajectory: %v, want typed not_found", err)
	}

	// round-trip sanity for the happy paths next to them
	if rec, err := c.GetTrajectory(context.Background(), 0); err != nil || rec.ID != 0 {
		t.Fatalf("GetTrajectory(0): %+v err=%v", rec, err)
	}
	if st, err := c.Stats(context.Background()); err != nil || st.Engine.Trajectories != 1 {
		t.Fatalf("stats: %+v err=%v", st, err)
	}
	if err := c.Health(context.Background()); err != nil {
		t.Fatalf("health: %v", err)
	}
}

// TestClientPolicyAdmin round-trips the learned-search administration:
// register a policy through the client, inspect it, query with "rls", and
// observe typed errors before registration.
func TestClientPolicyAdmin(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	c, eng := newServedEngine(t, engine.Config{Shards: 2, Index: engine.ScanAll})
	set := make([]api.Trajectory, 30)
	for i := range set {
		set[i] = api.FromTraj(randWalk(rng, rng.Intn(10)+6))
	}
	if _, err := c.Load(context.Background(), set); err != nil {
		t.Fatal(err)
	}

	// before registration: Policy is typed not_found, rls is invalid_argument
	var ae *api.Error
	if _, err := c.Policy(context.Background()); !errors.As(err, &ae) || ae.Code != api.CodeNotFound {
		t.Fatalf("Policy with none loaded: %v", err)
	}
	spec := api.QuerySpec{Query: set[0], K: 3, Algorithm: "rls"}
	resp, err := c.Query(context.Background(), api.Query{Specs: []api.QuerySpec{spec}})
	if err != nil {
		t.Fatal(err)
	}
	if e := resp.Results[0].Error; e == nil || e.Code != api.CodeInvalidArgument {
		t.Fatalf("rls with no policy: %+v", resp.Results[0])
	}

	// train a tiny policy in-process, register it by path
	pairsData := make([]traj.Trajectory, 8)
	pairsQuery := make([]traj.Trajectory, 8)
	for i := range pairsData {
		pairsData[i] = randWalk(rng, 12)
		pairsQuery[i] = randWalk(rng, 4)
	}
	p, _, err := rl.Train(pairsData, pairsQuery, sim.DTW{}, rl.Config{Episodes: 5, Seed: 3, UseSuffix: true})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/p.policy"
	if err := p.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	info, err := c.SwapPolicy(context.Background(), api.PolicySwapRequest{Path: path})
	if err != nil {
		t.Fatalf("SwapPolicy: %v", err)
	}
	if info.Name != "RLS" || info.Fingerprint == "" {
		t.Fatalf("swap info %+v", info)
	}
	got, err := c.Policy(context.Background())
	if err != nil || *got != *info {
		t.Fatalf("Policy() = %+v, %v; want %+v", got, err, info)
	}

	// the client-served ranking equals the in-process engine's
	resp, err = c.Query(context.Background(), api.Query{Specs: []api.QuerySpec{spec}})
	if err != nil {
		t.Fatal(err)
	}
	if e := resp.Results[0].Error; e != nil {
		t.Fatalf("rls query: %v", e)
	}
	q, aerr := spec.Query.ToTraj()
	if aerr != nil {
		t.Fatal(aerr)
	}
	direct, _, err := eng.TopK(context.Background(), engine.Query{Q: q, K: 3, Measure: "dtw", Algorithm: "rls"})
	if err != nil {
		t.Fatal(err)
	}
	want := engine.MatchesToAPI(direct)
	if !reflect.DeepEqual(resp.Results[0].Matches, want) {
		t.Fatalf("client ranking %+v != engine ranking %+v", resp.Results[0].Matches, want)
	}
}

// TestDefaultClientKeepsScatterConnections: a default Client used by eight
// goroutines at once (a router scattering to one node) must reuse its eight
// connections on the next wave instead of redialing — http.DefaultClient
// keeps two idle per host and dials six anew each time.
func TestDefaultClientKeepsScatterConnections(t *testing.T) {
	const fan = 8
	var dialed atomic.Int64
	var arrived sync.WaitGroup
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// hold every request until the whole wave is in flight, so the wave
		// needs fan connections at once
		arrived.Done()
		arrived.Wait()
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dialed.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	c := client.New(srv.URL)
	wave := func() {
		arrived.Add(fan)
		var wg sync.WaitGroup
		for i := 0; i < fan; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := c.Health(context.Background()); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	wave()
	first := dialed.Load()
	wave()
	if again := dialed.Load() - first; first != fan || again != 0 {
		t.Errorf("dialed %d connections for the first wave of %d and %d more for the second, want %d and 0", first, fan, again, fan)
	}
}
