package server

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"math/rand"
	"net/http"
	"testing"

	"simsub/api"
	"simsub/internal/engine"
	"simsub/internal/t2vec"
	"simsub/internal/traj"
)

// Serving-path tests of the ANN prefilter and encoder admin: the encoder
// hot-swaps over /v2/admin/encoder exactly like the policy registry, the
// "ann" knob on /v2/query prefilters without changing the wire shape, and
// the recall/encoder telemetry lands in /v2/stats.

func encoderB64(t *testing.T, m *t2vec.Model) string {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return base64.StdEncoding.EncodeToString(buf.Bytes())
}

func TestAdminEncoderSwapAndANNQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(120))
	set := make([]traj.Trajectory, 300)
	for i := range set {
		set[i] = randWalk(rng, rng.Intn(16)+6)
	}
	q := randWalk(rng, 6)
	srv, eng := newTestServer(t, engine.Config{Shards: 3, Index: engine.ScanAll, CacheSize: 64})
	eng.Add(set)

	// no encoder yet: GET 404s, and an ann query is a typed rejection
	resp, err := http.Get(srv.URL + "/v2/admin/encoder")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET encoder before swap: status %d, want 404", resp.StatusCode)
	}
	res := queryV2(t, srv.URL, api.QuerySpec{
		Query: api.FromTraj(q), K: 5, Measure: "dtw",
		ANN: &api.ANNSpec{Candidates: 50},
	})
	if res.Error == nil || res.Error.Code != api.CodeInvalidArgument {
		t.Fatalf("ann query without encoder: %+v, want invalid_argument", res.Error)
	}

	// register an encoder over the wire
	resp = postJSON(t, srv.URL+"/v2/admin/encoder", api.EncoderSwapRequest{
		EncoderB64: encoderB64(t, t2vec.NewRandomModel(8, 5)),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("encoder swap: status %d", resp.StatusCode)
	}
	var info api.EncoderInfo
	decodeBody(t, resp, &info)
	if info.Dim != 8 || info.Fingerprint == "" {
		t.Fatalf("swap info = %+v", info)
	}

	// a full-budget ann query reranks the whole corpus: byte-identical to
	// the exact query on the same route
	exact := queryV2(t, srv.URL, api.QuerySpec{Query: api.FromTraj(q), K: 10, Measure: "dtw"})
	if exact.Error != nil {
		t.Fatal(exact.Error)
	}
	ann := queryV2(t, srv.URL, api.QuerySpec{
		Query: api.FromTraj(q), K: 10, Measure: "dtw",
		ANN: &api.ANNSpec{Candidates: len(set), Probes: 4},
	})
	if ann.Error != nil {
		t.Fatal(ann.Error)
	}
	if len(ann.Matches) != len(exact.Matches) {
		t.Fatalf("ann %d matches, exact %d", len(ann.Matches), len(exact.Matches))
	}
	for i := range exact.Matches {
		if ann.Matches[i] != exact.Matches[i] {
			t.Fatalf("rank %d: ann %+v, exact %+v", i, ann.Matches[i], exact.Matches[i])
		}
	}

	// the pure embedding ranking serves under measure t2vec
	emb := queryV2(t, srv.URL, api.QuerySpec{
		Query: api.FromTraj(q), K: 5, Measure: "t2vec", Algorithm: "embed",
	})
	if emb.Error != nil {
		t.Fatal(emb.Error)
	}
	if len(emb.Matches) != 5 {
		t.Fatalf("embed returned %d matches", len(emb.Matches))
	}

	// telemetry: the encoder description and ann counters are in /v2/stats
	resp, err = http.Get(srv.URL + "/v2/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats api.StatsResponse
	decodeBody(t, resp, &stats)
	if !stats.Engine.EncoderLoaded || stats.Engine.EncoderFingerprint != info.Fingerprint {
		t.Fatalf("stats encoder = %q loaded=%v, want %q", stats.Engine.EncoderFingerprint,
			stats.Engine.EncoderLoaded, info.Fingerprint)
	}
	if stats.Engine.ANNQueries == 0 {
		t.Error("stats ann_queries never moved")
	}

	// GET now describes the registered encoder
	resp, err = http.Get(srv.URL + "/v2/admin/encoder")
	if err != nil {
		t.Fatal(err)
	}
	var got api.EncoderInfo
	decodeBody(t, resp, &got)
	if got != info {
		t.Fatalf("GET encoder = %+v, want %+v", got, info)
	}
}

func TestAdminEncoderSwapRejectsBadRequests(t *testing.T) {
	srv, _ := newTestServer(t, engine.Config{Shards: 1})
	for _, tc := range []struct {
		name   string
		body   api.EncoderSwapRequest
		status int
	}{
		{"neither field", api.EncoderSwapRequest{}, http.StatusBadRequest},
		{"both fields", api.EncoderSwapRequest{Path: "x", EncoderB64: "eA=="}, http.StatusBadRequest},
		{"missing file", api.EncoderSwapRequest{Path: "/nonexistent/encoder"}, http.StatusNotFound},
		{"bad base64", api.EncoderSwapRequest{EncoderB64: "!!!"}, http.StatusBadRequest},
		{"corrupt bytes", api.EncoderSwapRequest{EncoderB64: base64.StdEncoding.EncodeToString([]byte("junk"))}, http.StatusBadRequest},
	} {
		resp := postJSON(t, srv.URL+"/v2/admin/encoder", tc.body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
	}
}

func TestANNSpecValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	srv, eng := newTestServer(t, engine.Config{Shards: 1})
	set := make([]traj.Trajectory, 20)
	for i := range set {
		set[i] = randWalk(rng, 8)
	}
	eng.Add(set)
	if _, err := eng.SetEncoder(t2vec.NewRandomModel(4, 2)); err != nil {
		t.Fatal(err)
	}
	q := api.FromTraj(randWalk(rng, 5))
	for _, tc := range []struct {
		name string
		ann  *api.ANNSpec
	}{
		{"zero candidates", &api.ANNSpec{Candidates: 0}},
		{"negative candidates", &api.ANNSpec{Candidates: -3}},
		{"negative probes", &api.ANNSpec{Candidates: 5, Probes: -1}},
	} {
		res := queryV2(t, srv.URL, api.QuerySpec{Query: q, K: 3, Measure: "dtw", ANN: tc.ann})
		if res.Error == nil || res.Error.Code != api.CodeInvalidArgument {
			t.Errorf("%s: error %+v, want invalid_argument", tc.name, res.Error)
		}
	}
}

// TestTrajectoriesReadAcrossEncoderSwap reads stored points back after an
// encoder swap has re-embedded the store, through the engine and through
// GET /v2/trajectories/{id}: load, swap, load again, and every ID answers
// its loaded points while ID Len() is not_found. A reader runs against the
// engine for the whole sequence, so -race sees the swaps' view
// installation beside concurrent lookups.
func TestTrajectoriesReadAcrossEncoderSwap(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	srv, eng := newTestServer(t, engine.Config{Shards: 3})
	loaded := make([]traj.Trajectory, 40)
	for i := range loaded {
		loaded[i] = randWalk(rng, 4+rng.Intn(8))
	}
	first := loaded[:25]
	if _, err := eng.Add(first); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	bad := make(chan string, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := i % len(first)
			if got, ok := eng.Traj(id); !ok || !got.Equal(first[id]) {
				select {
				case bad <- fmt.Sprintf("concurrent read of ID %d: ok=%v, points %v", id, ok, got.Points):
				default:
				}
				return
			}
		}
	}()
	if _, err := eng.SetEncoder(t2vec.NewRandomModel(4, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Add(loaded[len(first):]); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SetEncoder(t2vec.NewRandomModel(6, 4)); err != nil {
		t.Fatal(err)
	}
	close(stop)
	<-done
	select {
	case msg := <-bad:
		t.Fatal(msg)
	default:
	}

	if eng.Len() != len(loaded) {
		t.Fatalf("Len = %d, want %d", eng.Len(), len(loaded))
	}
	for id, want := range loaded {
		if got, ok := eng.Traj(id); !ok || !got.Equal(want) {
			t.Fatalf("Engine.Traj(%d): ok=%v, points %v, want %v", id, ok, got.Points, want.Points)
		}
		resp, err := http.Get(fmt.Sprintf("%s/v2/trajectories/%d", srv.URL, id))
		if err != nil {
			t.Fatal(err)
		}
		var rec api.TrajectoryRecord
		decodeBody(t, resp, &rec)
		back, aerr := rec.Trajectory.ToTraj()
		if rec.ID != id || aerr != nil || !back.Equal(want) {
			t.Fatalf("GET /v2/trajectories/%d: record %+v (%v), want points %v", id, rec, aerr, want.Points)
		}
	}
	if _, ok := eng.Traj(len(loaded)); ok {
		t.Fatalf("Engine.Traj(%d) answered past the store", len(loaded))
	}
	resp, err := http.Get(fmt.Sprintf("%s/v2/trajectories/%d", srv.URL, len(loaded)))
	if err != nil {
		t.Fatal(err)
	}
	var er api.ErrorResponse
	decodeBody(t, resp, &er)
	if er.Err.Code != api.CodeNotFound {
		t.Fatalf("GET /v2/trajectories/%d: code %q, want %q", len(loaded), er.Err.Code, api.CodeNotFound)
	}
}
