package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"

	"simsub/api"
	"simsub/internal/engine"
	"simsub/internal/sim"
	"simsub/internal/traj"
)

// gatedMeasure is DTW behind a test-controlled gate: while armed, every
// NewIncremental call after the first blocks until the gate opens. Under
// "exacts", which builds one computer per candidate (the wrapper has no
// free-start pass), it makes streaming order deterministic: exactly one
// candidate can finish, so the stream's first match must be delivered
// while the other ~999 candidates are still pending — no timing
// assumptions.
type gatedMeasure struct{ inner sim.Measure }

var gate struct {
	mu      sync.Mutex
	armed   bool
	passed  int
	release chan struct{}
}

func gateArm() {
	gate.mu.Lock()
	defer gate.mu.Unlock()
	gate.armed, gate.passed, gate.release = true, 0, make(chan struct{})
}

func gateOpen() {
	gate.mu.Lock()
	defer gate.mu.Unlock()
	if gate.armed {
		close(gate.release)
		gate.armed = false
	}
}

func (g gatedMeasure) Name() string { return "gatedtw" }

func (g gatedMeasure) Dist(t, q traj.Trajectory) float64 { return g.inner.Dist(t, q) }

func (g gatedMeasure) NewIncremental(t, q traj.Trajectory) sim.Incremental {
	gate.mu.Lock()
	var wait chan struct{}
	if gate.armed {
		gate.passed++
		if gate.passed > 1 {
			wait = gate.release
		}
	}
	gate.mu.Unlock()
	if wait != nil {
		<-wait
	}
	return g.inner.NewIncremental(t, q)
}

func init() { sim.Register("gatedtw", func() sim.Measure { return gatedMeasure{inner: sim.DTW{}} }) }

// TestV2BatchMatchesSequential is the acceptance scenario: a 16-spec
// /v2/query batch must return per-spec results byte-identical to 16
// sequential one-spec batches on the same store.
func TestV2BatchMatchesSequential(t *testing.T) {
	const nTrajs = 1000
	rng := rand.New(rand.NewSource(85))
	ts, eng := newTestServer(t, engine.Config{Shards: 8, CacheSize: 64, Index: engine.ScanAll})
	data := make([]traj.Trajectory, nTrajs)
	for i := range data {
		data[i] = randWalk(rng, rng.Intn(16)+8)
	}
	eng.Add(data)

	specs := make([]api.QuerySpec, 16)
	for i := range specs {
		measure := "dtw"
		if i%2 == 1 {
			measure = "frechet"
		}
		specs[i] = api.QuerySpec{Query: toWire(randWalk(rng, 5)), K: 5, Measure: measure, Algorithm: "pss"}
	}

	// 16 sequential one-spec calls
	seqMatches := make([][]api.Match, len(specs))
	for i, spec := range specs {
		res := queryV2(t, ts.URL, spec)
		if res.Error != nil {
			t.Fatalf("sequential call %d: %v", i, res.Error)
		}
		seqMatches[i] = res.Matches
	}

	// one 16-spec batch
	resp := postJSON(t, ts.URL+"/v2/query", api.Query{Specs: specs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("v2 batch: status %d", resp.StatusCode)
	}
	var qr api.QueryResponse
	decodeBody(t, resp, &qr)
	if len(qr.Results) != len(specs) {
		t.Fatalf("v2 batch answered %d of %d specs", len(qr.Results), len(specs))
	}
	for i, res := range qr.Results {
		if res.Error != nil {
			t.Fatalf("spec %d failed: %v", i, res.Error)
		}
		got, _ := json.Marshal(res.Matches)
		want, _ := json.Marshal(seqMatches[i])
		if !bytes.Equal(got, want) {
			t.Fatalf("spec %d: batch ranking differs from the sequential call:\n got %s\nwant %s", i, got, want)
		}
		if res.Total != len(res.Matches) {
			t.Fatalf("spec %d: total %d for %d matches", i, res.Total, len(res.Matches))
		}
	}
}

// TestV2StreamFirstMatchBeforeSearchCompletes is the second acceptance
// scenario: on a 1000-trajectory store, /v2/query/stream must deliver its
// first NDJSON match while the search is still running. The gated measure
// lets exactly one candidate finish until the first line has been read and
// the engine's in-flight gauge inspected, so the assertion cannot race.
func TestV2StreamFirstMatchBeforeSearchCompletes(t *testing.T) {
	const nTrajs = 1000
	rng := rand.New(rand.NewSource(86))
	ts, eng := newTestServer(t, engine.Config{Shards: 4, Index: engine.ScanAll})
	data := make([]traj.Trajectory, nTrajs)
	for i := range data {
		data[i] = randWalk(rng, 8)
	}
	eng.Add(data)

	gateArm()
	defer gateOpen()
	body, _ := json.Marshal(api.StreamQuery{Spec: api.QuerySpec{
		Query: toWire(randWalk(rng, 4)), K: 5, Measure: "gatedtw", Algorithm: "exacts",
	}})
	resp, err := http.Post(ts.URL+"/v2/query/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}

	br := bufio.NewReader(resp.Body)
	first, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatalf("reading first stream record: %v", err)
	}
	var ev api.StreamEvent
	if err := json.Unmarshal(first, &ev); err != nil || ev.Match == nil {
		t.Fatalf("first record %s is not a match (err=%v)", first, err)
	}
	// the first match has crossed the wire while 999 candidates are still
	// blocked inside the search: the full scan is provably incomplete
	if inflight := eng.Stats().InFlight; inflight < 1 {
		t.Fatalf("in-flight %d after first streamed match; search already finished", inflight)
	}

	gateOpen()
	matches, sawSummary := 1, false
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			break
		}
		var ev api.StreamEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("bad stream record %s: %v", line, err)
		}
		switch {
		case ev.Match != nil:
			matches++
		case ev.Error != nil:
			t.Fatalf("stream failed: %v", ev.Error)
		case ev.Summary != nil:
			sawSummary = true
			if len(ev.Summary.Matches) != 5 || ev.Summary.Total != 5 {
				t.Fatalf("summary has %d matches, total %d, want 5", len(ev.Summary.Matches), ev.Summary.Total)
			}
			if ev.Summary.Emitted != matches {
				t.Fatalf("summary counts %d emissions, stream delivered %d", ev.Summary.Emitted, matches)
			}
		}
	}
	if !sawSummary {
		t.Fatal("stream ended without a summary record")
	}
}

// TestTypedErrorUniformity checks the satellite requirement: k ≤ 0,
// k > store size and unknown measure/algorithm names surface as the same
// typed invalid_argument shape from /v2 batch lanes and /v2 stream.
func TestTypedErrorUniformity(t *testing.T) {
	rng := rand.New(rand.NewSource(87))
	ts, eng := newTestServer(t, engine.Config{})
	eng.Add([]traj.Trajectory{randWalk(rng, 8), randWalk(rng, 8)})
	q := toWire(randWalk(rng, 4))

	cases := map[string]api.QuerySpec{
		"k zero":            {Query: q, K: 0},
		"k negative":        {Query: q, K: -3},
		"k over store":      {Query: q, K: 3},
		"unknown measure":   {Query: q, K: 1, Measure: "nope"},
		"unknown algorithm": {Query: q, K: 1, Algorithm: "nope"},
	}
	for name, spec := range cases {
		// v2 batch: the typed error inside the spec's result lane
		resp := postJSON(t, ts.URL+"/v2/query", api.Query{Specs: []api.QuerySpec{spec}})
		var qr api.QueryResponse
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s via v2 batch: status %d", name, resp.StatusCode)
			resp.Body.Close()
			continue
		}
		decodeBody(t, resp, &qr)
		if len(qr.Results) != 1 || qr.Results[0].Error == nil ||
			qr.Results[0].Error.Code != api.CodeInvalidArgument {
			t.Errorf("%s via v2 batch: %+v", name, qr.Results)
		}

		// v2 stream: the same typed envelope before any record is written
		resp = postJSON(t, ts.URL+"/v2/query/stream", api.StreamQuery{Spec: spec})
		var er2 api.ErrorResponse
		code := resp.StatusCode
		decodeBody(t, resp, &er2)
		if code != http.StatusBadRequest || er2.Err.Code != api.CodeInvalidArgument {
			t.Errorf("%s via v2 stream: status %d code %q", name, code, er2.Err.Code)
		}
	}

	// envelope-level batch errors
	resp := postJSON(t, ts.URL+"/v2/query", api.Query{})
	var er api.ErrorResponse
	code := resp.StatusCode
	decodeBody(t, resp, &er)
	if code != http.StatusBadRequest || er.Err.Code != api.CodeInvalidArgument {
		t.Errorf("empty batch: status %d code %q", code, er.Err.Code)
	}
}

// TestUnservedNamesRejected pins the query surface to what it serves: the
// competitor algorithms, the unregistered measures and their parameters
// answer 400 invalid_argument on a loaded store, and the message names
// what was refused (for an algorithm, alongside the names that are
// served).
func TestUnservedNamesRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	ts, eng := newTestServer(t, engine.Config{})
	eng.Add([]traj.Trajectory{randWalk(rng, 8), randWalk(rng, 8)})

	const q = `"query":{"points":[[0,0],[1,1]]},"k":1`
	for _, c := range []struct{ field, want string }{
		{`"algorithm":"spring"`, `exacts`},
		{`"algorithm":"ucr"`, `"ucr"`},
		{`"algorithm":"random-s"`, `"random-s"`},
		{`"algorithm":"randoms"`, `"randoms"`},
		{`"algorithm":"simtra"`, `"simtra"`},
		{`"measure":"lcss"`, `"lcss"`},
		{`"measure":"eds"`, `"eds"`},
		{`"measure":"edwp"`, `"edwp"`},
		{`"measure":"cdtw"`, `"cdtw"`},
		{`"lcss_eps":0.1`, `lcss_eps`},
		{`"cdtw_band":0.1`, `cdtw_band`},
	} {
		resp, err := http.Post(ts.URL+"/v2/query/stream", "application/json",
			strings.NewReader(`{"spec":{`+q+`,`+c.field+`}}`))
		if err != nil {
			t.Fatal(err)
		}
		var er api.ErrorResponse
		code := resp.StatusCode
		decodeBody(t, resp, &er)
		if code != http.StatusBadRequest || er.Err.Code != api.CodeInvalidArgument {
			t.Errorf("%s: status %d code %q, want 400 invalid_argument", c.field, code, er.Err.Code)
		} else if !strings.Contains(er.Err.Message, c.want) {
			t.Errorf("%s: message %q does not name %s", c.field, er.Err.Message, c.want)
		}
	}
}

// TestV2GetTrajectory round-trips a stored trajectory and checks unknown
// IDs surface as typed not_found errors.
func TestV2GetTrajectory(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	ts, eng := newTestServer(t, engine.Config{Shards: 3})
	stored := randWalk(rng, 9)
	ids, loadErr := eng.Add([]traj.Trajectory{stored})
	if loadErr != nil {
		t.Fatal(loadErr)
	}

	resp, err := http.Get(ts.URL + "/v2/trajectories/0")
	if err != nil {
		t.Fatal(err)
	}
	var rec api.TrajectoryRecord
	decodeBody(t, resp, &rec)
	if rec.ID != ids[0] || len(rec.Trajectory.Points) != stored.Len() {
		t.Fatalf("record %+v", rec)
	}
	back, aerr := rec.Trajectory.ToTraj()
	if aerr != nil || !back.Equal(stored) {
		t.Fatalf("round trip failed: %v", aerr)
	}

	for path, wantCode := range map[string]api.Code{
		"/v2/trajectories/7":  api.CodeNotFound,
		"/v2/trajectories/x":  api.CodeInvalidArgument,
		"/v2/trajectories/-1": api.CodeNotFound,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var er api.ErrorResponse
		decodeBody(t, resp, &er)
		if er.Err.Code != wantCode {
			t.Errorf("%s: code %q, want %q", path, er.Err.Code, wantCode)
		}
	}
}
