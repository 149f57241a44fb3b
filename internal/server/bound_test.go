package server

import (
	"math/rand"
	"net/http"
	"reflect"
	"testing"

	"simsub/api"
	"simsub/internal/engine"
)

// TestV2QueryBoundOverWire is the wire half of bound propagation: a
// coordinator's running k-th-best arrives as QuerySpec.bound, seeds the
// shard's threshold (visible as lb_skipped > 0 in /v2/stats), and leaves
// the ranking byte-identical.
func TestV2QueryBoundOverWire(t *testing.T) {
	srv, _ := newTestServer(t, engine.Config{Shards: 2, Index: engine.ScanAll})
	rng := rand.New(rand.NewSource(81))
	var ts []api.Trajectory
	for i := 0; i < 300; i++ {
		ts = append(ts, api.FromTraj(randWalk(rng, 12)))
	}

	resp := postJSON(t, srv.URL+"/v2/load", api.LoadRequest{Trajectories: ts})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("load: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	spec := api.QuerySpec{Query: api.FromTraj(randWalk(rng, 6)), K: 15, Algorithm: "pss"}
	var unbounded api.QueryResponse
	resp = postJSON(t, srv.URL+"/v2/query", api.Query{Specs: []api.QuerySpec{spec}})
	decodeBody(t, resp, &unbounded)
	want := unbounded.Results[0]
	if want.Error != nil || len(want.Matches) != spec.K {
		t.Fatalf("unbounded query: err=%v matches=%d", want.Error, len(want.Matches))
	}

	kth := want.Matches[len(want.Matches)-1].Dist
	bspec := spec
	bspec.Bound = &kth
	var bounded api.QueryResponse
	resp = postJSON(t, srv.URL+"/v2/query", api.Query{Specs: []api.QuerySpec{bspec}})
	decodeBody(t, resp, &bounded)
	got := bounded.Results[0]
	if got.Error != nil {
		t.Fatalf("bounded query: %v", got.Error)
	}
	if !reflect.DeepEqual(got.Matches, want.Matches) || got.Total != want.Total {
		t.Fatalf("wire bound changed the ranking\ngot  %+v\nwant %+v", got.Matches, want.Matches)
	}

	sresp, err := http.Get(srv.URL + "/v2/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st api.StatsResponse
	decodeBody(t, sresp, &st)
	if st.Engine.LBSkipped == 0 {
		t.Error("stats: lb_skipped = 0 after a tight wire bound — the seed did no pruning")
	}
}

// TestV2QueryBoundRejected checks a malformed bound dies at the wire
// boundary as invalid_argument.
func TestV2QueryBoundRejected(t *testing.T) {
	srv, _ := newTestServer(t, engine.Config{Shards: 2, Index: engine.ScanAll})
	rng := rand.New(rand.NewSource(82))

	resp := postJSON(t, srv.URL+"/v2/load", api.LoadRequest{
		Trajectories: []api.Trajectory{api.FromTraj(randWalk(rng, 10)), api.FromTraj(randWalk(rng, 10))},
	})
	resp.Body.Close()

	bad := -2.5
	var out api.QueryResponse
	resp = postJSON(t, srv.URL+"/v2/query", api.Query{Specs: []api.QuerySpec{
		{Query: api.FromTraj(randWalk(rng, 5)), K: 1, Bound: &bad},
	}})
	decodeBody(t, resp, &out)
	if e := out.Results[0].Error; e == nil || e.Code != api.CodeInvalidArgument {
		t.Fatalf("negative bound: got %v, want invalid_argument", e)
	}
}
