package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"simsub/api"
	"simsub/internal/engine"
	"simsub/internal/geo"
	"simsub/internal/t2vec"
	"simsub/internal/traj"
)

func newTestServer(t *testing.T, cfg engine.Config) (*httptest.Server, *engine.Engine) {
	t.Helper()
	eng := engine.New(cfg)
	ts := httptest.NewServer(New(eng, Options{}))
	t.Cleanup(ts.Close)
	return ts, eng
}

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

func toWire(t traj.Trajectory) api.Trajectory { return api.FromTraj(t) }

// wireLoad is the /v2/load body carrying ts.
func wireLoad(ts ...traj.Trajectory) api.LoadRequest {
	var req api.LoadRequest
	for _, t := range ts {
		req.Trajectories = append(req.Trajectories, toWire(t))
	}
	return req
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t, engine.Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var body map[string]string
	decodeBody(t, resp, &body)
	if body["status"] != "ok" {
		t.Fatalf("body %v", body)
	}
}

func TestLoadAndStats(t *testing.T) {
	ts, eng := newTestServer(t, engine.Config{Shards: 2})
	rng := rand.New(rand.NewSource(70))
	var set []traj.Trajectory
	for i := 0; i < 7; i++ {
		set = append(set, randWalk(rng, 10))
	}
	resp := postJSON(t, ts.URL+"/v2/load", wireLoad(set...))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("load status %d", resp.StatusCode)
	}
	var lr api.LoadResponse
	decodeBody(t, resp, &lr)
	if lr.Loaded != 7 || lr.Total != 7 || len(lr.IDs) != 7 {
		t.Fatalf("load response %+v", lr)
	}
	if eng.Len() != 7 {
		t.Fatalf("engine holds %d trajectories", eng.Len())
	}

	stats := func() api.StatsResponse {
		resp, err := http.Get(ts.URL + "/v2/stats")
		if err != nil {
			t.Fatal(err)
		}
		var sr api.StatsResponse
		decodeBody(t, resp, &sr)
		return sr
	}
	sr := stats()
	if sr.Engine.Trajectories != 7 || sr.Engine.Points != 70 || sr.Engine.Shards != 2 {
		t.Fatalf("stats %+v", sr.Engine)
	}
	// the served measures, plus gatedtw, which this package's tests
	// register; t2vec only while an encoder is registered
	if got, want := strings.Join(sr.Measures, " "), "dtw edr erp frechet gatedtw"; got != want {
		t.Fatalf("stats measures with no encoder %q, want %q", got, want)
	}
	if _, err := eng.SetEncoder(t2vec.NewRandomModel(4, 1)); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(stats().Measures, " "), "dtw edr erp frechet gatedtw t2vec"; got != want {
		t.Fatalf("stats measures with an encoder %q, want %q", got, want)
	}
}

func TestTopKEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, engine.Config{Shards: 3, CacheSize: 8, Index: engine.ScanAll})
	rng := rand.New(rand.NewSource(71))
	var set []traj.Trajectory
	for i := 0; i < 20; i++ {
		set = append(set, randWalk(rng, 12))
	}
	postJSON(t, ts.URL+"/v2/load", wireLoad(set...)).Body.Close()

	spec := api.QuerySpec{Query: toWire(randWalk(rng, 5)), K: 4, Measure: "dtw", Algorithm: "pss"}
	res := queryV2(t, ts.URL, spec)
	if res.Error != nil || len(res.Matches) != 4 || res.Cached {
		t.Fatalf("top-k result: err=%v, %d matches, cached=%v", res.Error, len(res.Matches), res.Cached)
	}
	for i, m := range res.Matches {
		if m.Start < 0 || m.End < m.Start || m.Dist < 0 || m.Sim <= 0 || m.Sim > 1 {
			t.Fatalf("match %d malformed: %+v", i, m)
		}
		if i > 0 && res.Matches[i-1].Dist > m.Dist {
			t.Fatal("matches not ascending")
		}
	}

	// identical query → cache hit
	if res := queryV2(t, ts.URL, spec); !res.Cached {
		t.Fatal("second identical query not served from cache")
	}
}

// TestBadRequests checks malformed requests fail as typed invalid_argument:
// as the 400 envelope when the request itself is bad, inside the spec's
// result lane when one spec of a batch is.
func TestBadRequests(t *testing.T) {
	ts, eng := newTestServer(t, engine.Config{})
	eng.Add([]traj.Trajectory{randWalk(rand.New(rand.NewSource(73)), 8)})
	pair := api.Trajectory{Points: [][]float64{{0, 0}, {1, 1}}}
	for _, tc := range []struct {
		name string
		path string
		body any
	}{
		{"empty load", "/v2/load", api.LoadRequest{}},
		{"empty trajectory", "/v2/load", api.LoadRequest{Trajectories: []api.Trajectory{{}}}},
		{"bad point arity", "/v2/load",
			api.LoadRequest{Trajectories: []api.Trajectory{{Points: [][]float64{{1}}}}}},
		{"empty batch", "/v2/query", api.Query{}},
		{"unknown request field", "/v2/query", map[string]any{"specs": []any{}, "data": pair}},
		{"empty stream query", "/v2/query/stream", api.StreamQuery{Spec: api.QuerySpec{K: 1}}},
	} {
		resp := postJSON(t, ts.URL+tc.path, tc.body)
		var e api.ErrorResponse
		code := resp.StatusCode
		decodeBody(t, resp, &e)
		if code != http.StatusBadRequest || e.Err.Code != api.CodeInvalidArgument || e.Err.Message == "" {
			t.Errorf("%s: status %d (want 400), error %+v", tc.name, code, e.Err)
		}
	}
	for name, spec := range map[string]api.QuerySpec{
		"empty query":       {K: 1},
		"unknown measure":   {Query: pair, K: 1, Measure: "nope"},
		"unknown algorithm": {Query: pair, K: 1, Algorithm: "nope"},
	} {
		res := queryV2(t, ts.URL, spec)
		if res.Error == nil || res.Error.Code != api.CodeInvalidArgument || res.Error.Message == "" {
			t.Errorf("%s: error %+v, want invalid_argument", name, res.Error)
		}
	}

	// malformed JSON
	resp, err := http.Post(ts.URL+"/v2/query", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d", resp.StatusCode)
	}

	// wrong method
	resp, err = http.Get(ts.URL + "/v2/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v2/query: status %d", resp.StatusCode)
	}
}

func TestTopKDefaults(t *testing.T) {
	ts, _ := newTestServer(t, engine.Config{Index: engine.ScanAll})
	rng := rand.New(rand.NewSource(72))
	var set []traj.Trajectory
	for i := 0; i < 15; i++ {
		set = append(set, randWalk(rng, 8))
	}
	postJSON(t, ts.URL+"/v2/load", wireLoad(set...)).Body.Close()
	// measure and algorithm default; k is required
	res := queryV2(t, ts.URL, api.QuerySpec{Query: toWire(randWalk(rng, 4)), K: 6})
	if res.Error != nil || len(res.Matches) != 6 {
		t.Fatalf("default measure/algorithm: err=%v, %d matches, want 6", res.Error, len(res.Matches))
	}

	// an omitted (or non-positive) k is a typed invalid_argument error —
	// there is no silent default ranking size
	res = queryV2(t, ts.URL, api.QuerySpec{Query: toWire(randWalk(rng, 4))})
	if res.Error == nil || res.Error.Code != api.CodeInvalidArgument {
		t.Fatalf("omitted k: error %+v", res.Error)
	}

	// an absurd timeout_ms must clamp to MaxTimeout, not overflow into an
	// already-expired deadline
	resp := postJSON(t, ts.URL+"/v2/query", api.Query{
		Specs:     []api.QuerySpec{{Query: toWire(randWalk(rng, 4)), K: 3}},
		TimeoutMS: 1 << 60,
	})
	var qr api.QueryResponse
	code := resp.StatusCode
	decodeBody(t, resp, &qr)
	if code != http.StatusOK || len(qr.Results) != 1 || qr.Results[0].Error != nil {
		t.Fatalf("huge timeout_ms: status %d, results %+v, want a 200 answer", code, qr.Results)
	}
}
