package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"math/rand"
	"net/http"
	"sort"
	"testing"

	"simsub/api"
	"simsub/internal/core"
	"simsub/internal/engine"
	"simsub/internal/nn"
	"simsub/internal/rl"
	"simsub/internal/sim"
	"simsub/internal/traj"
)

// Serving-path tests of the learned searches: /v2/query with
// algorithm "rls" must be byte-identical to direct core.RLS invocation,
// hot swaps through the admin endpoint must invalidate cached rankings,
// and unknown or unservable algorithm/measure names must fail uniformly as
// typed invalid_argument on every route.

// servePolicy is the server tests' constant-action policy constructor.
func servePolicy(action, k int, useSuffix, simplify bool) *rl.Policy {
	dim := rl.StateDim(useSuffix)
	net := nn.NewMLP([]int{dim, 2, 2 + k}, []nn.Activation{nn.ReLU, nn.Sigmoid}, rand.New(rand.NewSource(1)))
	for _, l := range net.Layers {
		for i := range l.W.W {
			l.W.W[i] = 0
		}
		for i := range l.B.W {
			l.B.W[i] = -5
		}
	}
	net.Layers[len(net.Layers)-1].B.W[action] = 5
	return &rl.Policy{Net: net, K: k, UseSuffix: useSuffix, SimplifyState: simplify}
}

func policyB64(t *testing.T, p *rl.Policy) string {
	t.Helper()
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return base64.StdEncoding.EncodeToString(buf.Bytes())
}

// directRLSMatches ranks direct core.RLS answers over the loaded set by
// the engine's global order and converts them to wire form.
func directRLSMatches(ts []traj.Trajectory, p *rl.Policy, q traj.Trajectory, k int) []api.Match {
	alg := core.RLS{M: sim.DTW{}, Policy: p}
	type row struct {
		id int
		r  core.Result
	}
	rows := make([]row, len(ts))
	for i, dt := range ts {
		rows[i] = row{id: i, r: alg.Search(dt, q)}
	}
	sort.Slice(rows, func(i, j int) bool {
		return core.RankBefore(rows[i].r.Dist, rows[i].id, rows[i].r.Interval,
			rows[j].r.Dist, rows[j].id, rows[j].r.Interval)
	})
	if k > len(rows) {
		k = len(rows)
	}
	out := make([]api.Match, k)
	for i, r := range rows[:k] {
		out[i] = api.Match{
			TrajID: r.id, Start: r.r.Interval.I, End: r.r.Interval.J,
			Dist: r.r.Dist, Sim: sim.Sim(r.r.Dist), Explored: r.r.Explored,
		}
	}
	return out
}

func queryV2(t *testing.T, url string, spec api.QuerySpec) api.QueryResult {
	t.Helper()
	resp := postJSON(t, url+"/v2/query", api.Query{Specs: []api.QuerySpec{spec}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v2/query status %d", resp.StatusCode)
	}
	var out api.QueryResponse
	decodeBody(t, resp, &out)
	if len(out.Results) != 1 {
		t.Fatalf("%d results", len(out.Results))
	}
	return out.Results[0]
}

func TestV2QueryRLSMatchesDirectCore(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	set := make([]traj.Trajectory, 1000)
	for i := range set {
		set[i] = randWalk(rng, rng.Intn(16)+6)
	}
	q := randWalk(rng, 6)

	srv, eng := newTestServer(t, engine.Config{Shards: 4, Index: engine.ScanAll})
	eng.Add(set)

	for _, tc := range []struct {
		algo   string
		policy *rl.Policy
	}{
		{"rls", servePolicy(0, 0, true, false)},
		{"rls-skip", servePolicy(2, 1, false, true)},
	} {
		if _, err := eng.SetPolicy(tc.policy); err != nil {
			t.Fatal(err)
		}
		res := queryV2(t, srv.URL, api.QuerySpec{
			Query: api.FromTraj(q), K: 10, Measure: "dtw", Algorithm: tc.algo,
		})
		if res.Error != nil {
			t.Fatalf("%s: %v", tc.algo, res.Error)
		}
		want := directRLSMatches(set, tc.policy, q, 10)
		if len(res.Matches) != len(want) {
			t.Fatalf("%s: %d matches, want %d", tc.algo, len(res.Matches), len(want))
		}
		for i := range want {
			if res.Matches[i] != want[i] {
				t.Fatalf("%s rank %d: got %+v, want %+v (served ranking differs from direct core.RLS)",
					tc.algo, i, res.Matches[i], want[i])
			}
		}
	}
}

func TestAdminPolicySwapInvalidatesServedCache(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	set := make([]traj.Trajectory, 200)
	for i := range set {
		set[i] = randWalk(rng, rng.Intn(16)+6)
	}
	q := randWalk(rng, 6)
	srv, eng := newTestServer(t, engine.Config{Shards: 3, Index: engine.ScanAll, CacheSize: 64})
	eng.Add(set)

	// no policy yet: GET is a typed not_found, queries are invalid_argument
	resp, err := http.Get(srv.URL + "/v2/admin/policy")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET policy with none loaded: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	never := servePolicy(0, 0, true, false)
	always := servePolicy(1, 0, true, false)
	resp = postJSON(t, srv.URL+"/v2/admin/policy", api.PolicySwapRequest{PolicyB64: policyB64(t, never)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("swap status %d", resp.StatusCode)
	}
	var info api.PolicyInfo
	decodeBody(t, resp, &info)
	if info.Name != "RLS" || info.Fingerprint == "" {
		t.Fatalf("swap info %+v", info)
	}

	spec := api.QuerySpec{Query: api.FromTraj(q), K: 8, Measure: "dtw", Algorithm: "rls"}
	if res := queryV2(t, srv.URL, spec); res.Error != nil || res.Cached {
		t.Fatalf("first query: %+v", res)
	}
	if res := queryV2(t, srv.URL, spec); res.Error != nil || !res.Cached {
		t.Fatalf("repeat query not served from cache: %+v", res)
	}

	// hot-swap to a different policy: the fingerprint changes, so the
	// cached old-policy ranking must be unreachable
	resp = postJSON(t, srv.URL+"/v2/admin/policy", api.PolicySwapRequest{PolicyB64: policyB64(t, always)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second swap status %d", resp.StatusCode)
	}
	var info2 api.PolicyInfo
	decodeBody(t, resp, &info2)
	if info2.Fingerprint == info.Fingerprint {
		t.Fatal("distinct policies share a fingerprint")
	}
	res := queryV2(t, srv.URL, spec)
	if res.Error != nil {
		t.Fatal(res.Error)
	}
	if res.Cached {
		t.Fatal("post-swap query served a stale-policy ranking from the cache")
	}
	want := directRLSMatches(set, always, q, 8)
	for i := range want {
		if res.Matches[i] != want[i] {
			t.Fatalf("post-swap rank %d: got %+v, want %+v", i, res.Matches[i], want[i])
		}
	}

	// stats reflect the registration and the served learned queries
	var stats api.StatsResponse
	sresp, err := http.Get(srv.URL + "/v2/stats")
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, sresp, &stats)
	if !stats.Engine.PolicyLoaded || stats.Engine.PolicyFingerprint != info2.Fingerprint {
		t.Fatalf("stats policy fields: %+v", stats.Engine)
	}
	if stats.Engine.RLSQueries < 3 {
		t.Fatalf("RLSQueries = %d, want >= 3", stats.Engine.RLSQueries)
	}
}

func TestAdminPolicySwapRejectsBadRequests(t *testing.T) {
	srv, _ := newTestServer(t, engine.Config{Shards: 1})
	cases := []struct {
		name   string
		body   api.PolicySwapRequest
		status int
	}{
		{"neither field", api.PolicySwapRequest{}, http.StatusBadRequest},
		{"both fields", api.PolicySwapRequest{Path: "x", PolicyB64: "eA=="}, http.StatusBadRequest},
		{"missing file", api.PolicySwapRequest{Path: "/nonexistent/policy"}, http.StatusNotFound},
		{"bad base64", api.PolicySwapRequest{PolicyB64: "!!!"}, http.StatusBadRequest},
		{"corrupt policy", api.PolicySwapRequest{PolicyB64: base64.StdEncoding.EncodeToString([]byte("nope"))}, http.StatusBadRequest},
		{"negative compile resolution", api.PolicySwapRequest{PolicyB64: "eA==", CompileResolution: -1}, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp := postJSON(t, srv.URL+"/v2/admin/policy", c.body)
		var er api.ErrorResponse
		status := resp.StatusCode
		decodeBody(t, resp, &er)
		if status != c.status || er.Err.Code == "" {
			t.Errorf("%s: status %d (want %d), error %+v", c.name, status, c.status, er.Err)
		}
	}
}

// TestUnknownNamesUniformAcrossRoutes pins the satellite contract: unknown
// measure/algorithm strings — and the learned algorithms with no policy
// loaded — fail as typed invalid_argument on every query route.
func TestUnknownNamesUniformAcrossRoutes(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	srv, eng := newTestServer(t, engine.Config{Shards: 2})
	eng.Add([]traj.Trajectory{randWalk(rng, 8), randWalk(rng, 8)})
	wire := toWire(randWalk(rng, 4))

	type probe struct{ measure, algorithm string }
	probes := []probe{
		{"dtw", "nosuch-algorithm"},
		{"nosuch-measure", "pss"},
		{"dtw", "rls"},      // no policy loaded
		{"dtw", "rls-skip"}, // no policy loaded
	}
	for _, p := range probes {
		// /v2/query: spec-level typed error inside the batch result
		res := queryV2(t, srv.URL, api.QuerySpec{Query: wire, K: 1, Measure: p.measure, Algorithm: p.algorithm})
		if res.Error == nil || res.Error.Code != api.CodeInvalidArgument {
			t.Errorf("/v2/query %v: error %+v", p, res.Error)
		}

		// /v2/query/stream: pre-stream failures use the ordinary envelope
		resp := postJSON(t, srv.URL+"/v2/query/stream", api.StreamQuery{
			Spec: api.QuerySpec{Query: wire, K: 1, Measure: p.measure, Algorithm: p.algorithm},
		})
		var er api.ErrorResponse
		status := resp.StatusCode
		decodeBody(t, resp, &er)
		if status != http.StatusBadRequest || er.Err.Code != api.CodeInvalidArgument {
			t.Errorf("/v2/query/stream %v: status %d code %q", p, status, er.Err.Code)
		}
	}
}

// TestRLSOverStreamRoute proves the learned search serves through the
// streamed route too once a policy is registered (TestV2QueryRLSMatchesDirectCore
// covers /v2/query): /v2/query/stream accepts algorithm "rls".
func TestRLSOverStreamRoute(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	set := make([]traj.Trajectory, 50)
	for i := range set {
		set[i] = randWalk(rng, rng.Intn(12)+6)
	}
	q := randWalk(rng, 5)
	srv, eng := newTestServer(t, engine.Config{Shards: 2, Index: engine.ScanAll})
	eng.Add(set)
	p := servePolicy(0, 0, true, false)
	if _, err := eng.SetPolicy(p); err != nil {
		t.Fatal(err)
	}
	want := directRLSMatches(set, p, q, 5)

	// stream: the trailing summary is the authoritative ranking
	body, err := json.Marshal(api.StreamQuery{Spec: api.QuerySpec{
		Query: api.FromTraj(q), K: 5, Measure: "dtw", Algorithm: "rls",
	}})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost,
		srv.URL+"/v2/query/stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var summary *api.StreamSummary
	dec := json.NewDecoder(resp.Body)
	for {
		var ev api.StreamEvent
		if err := dec.Decode(&ev); err != nil {
			break
		}
		if ev.Error != nil {
			t.Fatalf("stream error: %v", ev.Error)
		}
		if ev.Summary != nil {
			summary = ev.Summary
			break
		}
	}
	if summary == nil {
		t.Fatal("stream ended without a summary")
	}
	if len(summary.Matches) != len(want) {
		t.Fatalf("stream %d matches, want %d", len(summary.Matches), len(want))
	}
	for i := range want {
		if summary.Matches[i] != want[i] {
			t.Fatalf("stream rank %d: got %+v, want %+v", i, summary.Matches[i], want[i])
		}
	}
}
