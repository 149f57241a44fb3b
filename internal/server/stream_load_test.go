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

// TestLoadStreamBadRecords is the route's table of refused records: what is
// wrong with each, and the text the client reads. The same records seed
// FuzzTrajectoryScanner (badRecords in internal/traj/scan_test.go); keep the
// two in step.
func TestLoadStreamBadRecords(t *testing.T) {
	ts, eng := newTestServer(t, engine.Config{Shards: 2})
	const good = `{"points":[[0,0],[1,1]]}` + "\n"
	for _, c := range []struct{ record, message string }{
		{`this is not json`, "stream record 2: bad JSON (0 records already committed): invalid character 't', want the '{' of a trajectory object at offset 25"},
		{`{"points":[[0,0],[1,1]]`, "stream record 2: bad JSON (0 records already committed): unexpected EOF"},
		{`{"points":[]}`, "stream record 2 (0 records already committed): trajectory is empty"},
		{`{}`, "stream record 2 (0 records already committed): trajectory is empty"},
		{`null`, "stream record 2: bad JSON (0 records already committed): invalid character 'n', want the '{' of a trajectory object at offset 25"},
		{`[[0,0],[1,1]]`, "stream record 2: bad JSON (0 records already committed): invalid character '[', want the '{' of a trajectory object at offset 25"},
		{`{"points":[[0,0],[1]]}`, "stream record 2 (0 records already committed): point 1 has 1 coordinates, want [x,y] or [x,y,t]"},
		{`{"points":[[0,0,0,0]]}`, "stream record 2 (0 records already committed): point 0 has 4 coordinates, want [x,y] or [x,y,t]"},
		{`{"points":[[0,0],null]}`, "stream record 2 (0 records already committed): point 1 has 0 coordinates, want [x,y] or [x,y,t]"},
		{`{"points":[[0,null]]}`, "stream record 2 (0 records already committed): point 0 has a null coordinate"},
		{`{"points":[[0,"1"]]}`, `stream record 2: bad JSON (0 records already committed): invalid character '"', want a coordinate at offset 39`},
		{`{"points":[[0,1e400]]}`, "stream record 2: bad JSON (0 records already committed): coordinate 1e400 does not fit a float64 at offset 39"},
		{`{"points":[[0,01]]}`, "stream record 2: bad JSON (0 records already committed): invalid character '1' after a value, want ',' or ']' at offset 40"},
		{`{"points":{"0":[0,0]}}`, "stream record 2: bad JSON (0 records already committed): invalid character '{', want the '[' of a points array at offset 35"},
		{`{"points":[[0,0]],}`, "stream record 2: bad JSON (0 records already committed): invalid character '}', want a key string at offset 43"},
	} {
		resp, err := http.Post(ts.URL+"/v2/load/stream", "application/x-ndjson", strings.NewReader(good+c.record+"\n"))
		if err != nil {
			t.Fatal(err)
		}
		var envelope struct {
			Error *api.Error `json:"error"`
		}
		decodeBody(t, resp, &envelope)
		if resp.StatusCode != http.StatusBadRequest || envelope.Error == nil ||
			envelope.Error.Code != api.CodeInvalidArgument || envelope.Error.Message != c.message {
			t.Errorf("%s: status %d, error %+v\nwant 400 invalid_argument %q", c.record, resp.StatusCode, envelope.Error, c.message)
		}
	}
	if eng.Len() != 0 {
		t.Fatalf("engine holds %d trajectories after refused streams", eng.Len())
	}
}

// TestLoadStreamRecordCap: the route's body is exempt from MaxBodyBytes, a
// single record is not. A record that never ends is cut off at the cap with
// the typed too_large naming the record and what was committed before it,
// instead of being buffered whole.
func TestLoadStreamRecordCap(t *testing.T) {
	eng := engine.New(engine.Config{Shards: 2})
	srv := httptest.NewServer(New(eng, Options{MaxBodyBytes: 1 << 10}))
	t.Cleanup(srv.Close)
	small := strings.Repeat(`{"points":[[0,0],[1,1]]}`+"\n", 600) // 15 kB: well past the cap
	resp, err := http.Post(srv.URL+"/v2/load/stream", "application/x-ndjson", strings.NewReader(small))
	if err != nil {
		t.Fatal(err)
	}
	var ok api.BulkLoadResponse
	decodeBody(t, resp, &ok)
	if resp.StatusCode != http.StatusOK || ok.Loaded != 600 {
		t.Fatalf("a long stream of small records: status %d, %+v", resp.StatusCode, ok)
	}

	long := `{"points":[[0,0],[1,1]],"pad":"` + strings.Repeat("x", 4<<10) // no newline, no end
	resp, err = http.Post(srv.URL+"/v2/load/stream", "application/x-ndjson", strings.NewReader(small+long))
	if err != nil {
		t.Fatal(err)
	}
	var envelope struct {
		Error *api.Error `json:"error"`
	}
	decodeBody(t, resp, &envelope)
	const want = "stream record 601 exceeds 1024 bytes (512 records already committed)"
	if resp.StatusCode != http.StatusRequestEntityTooLarge || envelope.Error == nil ||
		envelope.Error.Code != api.CodeTooLarge || envelope.Error.Message != want {
		t.Fatalf("status %d, error %+v; want 413 too_large %q", resp.StatusCode, envelope.Error, want)
	}
	if eng.Len() != 600+512 {
		t.Fatalf("engine holds %d trajectories, want the first stream's 600 and the second's committed 512", eng.Len())
	}
}
