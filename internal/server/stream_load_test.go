package server

import (
	"bytes"
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"simsub/api"
	"simsub/client"
	"simsub/internal/engine"
	"simsub/internal/traj"
)

// TestLoadStream streams an NDJSON corpus through POST /v2/load/stream via
// the Go client and checks the ingest response, the engine contents, and
// that the loaded corpus is immediately searchable.
func TestLoadStream(t *testing.T) {
	ts, eng := newTestServer(t, engine.Config{Shards: 2, Index: engine.ScanAll})
	rng := rand.New(rand.NewSource(90))
	corpus := make([]traj.Trajectory, 700)
	for i := range corpus {
		corpus[i] = randWalk(rng, 10)
		corpus[i].ID = i
	}
	var buf bytes.Buffer
	if err := traj.WriteNDJSON(&buf, corpus); err != nil {
		t.Fatal(err)
	}

	c := client.New(ts.URL)
	resp, err := c.LoadStream(context.Background(), &buf)
	if err != nil {
		t.Fatalf("LoadStream: %v", err)
	}
	if resp.Loaded != len(corpus) || resp.FirstID != 0 || resp.Total != len(corpus) {
		t.Fatalf("ingest response %+v", resp)
	}
	if eng.Len() != len(corpus) {
		t.Fatalf("engine holds %d trajectories, want %d", eng.Len(), len(corpus))
	}

	q := api.QuerySpec{Query: api.FromTraj(randWalk(rng, 6)), K: 5}
	res := eng.QueryOne(context.Background(), q)
	if res.Error != nil || len(res.Matches) != 5 {
		t.Fatalf("query over streamed corpus: err=%v matches=%d", res.Error, len(res.Matches))
	}
}

// TestLoadStreamPartialError checks that a malformed NDJSON record fails
// the request with a typed error naming how many records were already
// committed — batches before the bad line stay loaded.
func TestLoadStreamPartialError(t *testing.T) {
	ts, eng := newTestServer(t, engine.Config{Shards: 2})
	body := `{"points":[[0,0,0],[1,1,1]]}
{"points":[[2,2,0],[3,3,1]]}
this is not json
`
	resp, err := http.Post(ts.URL+"/v2/load/stream", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 == 2 {
		t.Fatal("malformed NDJSON accepted")
	}
	var envelope struct {
		Error *api.Error `json:"error"`
	}
	decodeBody(t, resp, &envelope)
	if envelope.Error == nil || envelope.Error.Code != api.CodeInvalidArgument {
		t.Fatalf("error envelope %+v", envelope.Error)
	}
	// both valid records fit in one uncommitted batch, so nothing loaded
	if eng.Len() != 0 {
		t.Fatalf("engine holds %d trajectories after failed stream", eng.Len())
	}
}

// TestRecoveringGate drives the lifecycle a persistent node goes through
// on boot: while recovering, every data-path endpoint answers 503
// overloaded (so a router fails over), /healthz reports recovering, and
// /v2/stats — left open for observability — reports the state; flipping
// to ready restores normal service.
func TestRecoveringGate(t *testing.T) {
	eng := engine.New(engine.Config{Shards: 2})
	h := New(eng, Options{})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	h.SetReady(false)
	h.SetRecovery(api.RecoveryInfo{Segments: 3, Records: 42, Replayed: 7})

	gated := []struct{ method, path, body string }{
		{http.MethodPost, "/v2/query", `{"queries":[]}`},
		{http.MethodPost, "/v2/query/stream", `{}`},
		{http.MethodGet, "/v2/trajectories/0", ""},
		{http.MethodPost, "/v2/load", `{"trajectories":[]}`},
		{http.MethodPost, "/v2/load/stream", `{"points":[[0,0,0],[1,1,1]]}`},
	}
	for _, g := range gated {
		req, err := http.NewRequest(g.method, srv.URL+g.path, strings.NewReader(g.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var envelope struct {
			Error *api.Error `json:"error"`
		}
		decodeBody(t, resp, &envelope)
		if resp.StatusCode != http.StatusServiceUnavailable ||
			envelope.Error == nil || envelope.Error.Code != api.CodeOverloaded {
			t.Errorf("%s %s while recovering: status %d, error %+v",
				g.method, g.path, resp.StatusCode, envelope.Error)
		}
	}
	if eng.Len() != 0 {
		t.Fatalf("a gated load still reached the engine: %d trajectories", eng.Len())
	}

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]string
	decodeBody(t, resp, &health)
	if resp.StatusCode != http.StatusServiceUnavailable || health["status"] != api.StateRecovering {
		t.Fatalf("healthz while recovering: status %d body %v", resp.StatusCode, health)
	}

	resp, err = http.Get(srv.URL + "/v2/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats api.StatsResponse
	decodeBody(t, resp, &stats)
	if resp.StatusCode != http.StatusOK || stats.State != api.StateRecovering {
		t.Fatalf("stats while recovering: status %d state %q", resp.StatusCode, stats.State)
	}
	if stats.Recovery == nil || stats.Recovery.Records != 42 {
		t.Fatalf("stats recovery info %+v", stats.Recovery)
	}

	h.SetReady(true)
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, &health)
	if resp.StatusCode != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("healthz after recovery: status %d body %v", resp.StatusCode, health)
	}
	resp, err = http.Get(srv.URL + "/v2/stats")
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, &stats)
	if stats.State != api.StateReady {
		t.Fatalf("stats state after recovery: %q", stats.State)
	}
}
