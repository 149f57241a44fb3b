package router

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"simsub/api"
	"simsub/client"
	"simsub/internal/engine"
	"simsub/internal/server"
	"simsub/internal/sim"
	"simsub/internal/traj"
)

// stallMeasure is DTW behind a test-controlled gate: while armed, every
// NewIncremental call after the first blocks until release. Under
// "exacts", which builds one computer per candidate, exactly one candidate
// can finish, so a stream delivers one match and then provably outlives
// any deadline — the mid-stream failure the parity table needs. DTW is a
// field, not embedded: embedding would promote its free-start MinSub,
// which answers ExactS without any computer and so gets round the gate.
type stallMeasure struct{ dtw sim.DTW }

var stall struct {
	mu      sync.Mutex
	passed  int
	release chan struct{} // nil = disarmed
}

func stallArm() {
	stall.mu.Lock()
	defer stall.mu.Unlock()
	stall.passed, stall.release = 0, make(chan struct{})
}

// stallOpen releases the blocked NewIncremental calls and disarms; it is
// idempotent.
func stallOpen() {
	stall.mu.Lock()
	defer stall.mu.Unlock()
	if stall.release != nil {
		close(stall.release)
		stall.release = nil
	}
}

func (stallMeasure) Name() string { return "stalldtw" }

func (m stallMeasure) Dist(t, q traj.Trajectory) float64 { return m.dtw.Dist(t, q) }

func (m stallMeasure) NewIncremental(t, q traj.Trajectory) sim.Incremental {
	stall.mu.Lock()
	var wait chan struct{}
	if stall.release != nil {
		if stall.passed++; stall.passed > 1 {
			wait = stall.release
		}
	}
	stall.mu.Unlock()
	if wait != nil {
		<-wait
	}
	return m.dtw.NewIncremental(t, q)
}

func init() { sim.Register("stalldtw", func() sim.Measure { return stallMeasure{} }) }

// frontEnd is one HTTP front end under the parity table: a node or a
// router, rebuilt per row over the same backing store with the row's
// options; setReady flips the node(s) behind it in and out of recovery.
type frontEnd struct {
	name string
	make func(server.Options) (h http.Handler, setReady func(bool))
}

// outcome is what the parity table compares across front ends.
type outcome struct {
	status      int
	contentType string
	retryAfter  string
	code        api.Code // the error envelope's, "" on success
	detail      string   // row-specific: what the 2xx body carried
}

// TestFrontEndParity drives a node (server.New) and a router
// (router.NewHandler) holding the same corpus through the failures of the
// wire front end and demands the same status, error code and headers from
// both: the front end exists once, so a client cannot tell which one it is
// talking to.
func TestFrontEndParity(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	ts := randSet(rng, 40)
	q := api.FromTraj(randTraj(rng, 5))

	solo := engine.New(engine.Config{Shards: 2, Index: engine.ScanAll})
	if _, err := solo.Add(ts); err != nil {
		t.Fatal(err)
	}
	fleet := startFleet(t, 1)
	rt := newTestRouter(t, fleet, func(c *Config) { c.Retry = client.RetryPolicy{MaxAttempts: 1} })
	mustLoad(t, rt, ts)
	fronts := []frontEnd{
		{"node", func(o server.Options) (http.Handler, func(bool)) {
			s := server.New(solo, o)
			return s, s.SetReady
		}},
		{"router", func(o server.Options) (http.Handler, func(bool)) {
			return NewHandler(rt, o), fleet[0].h.SetReady
		}},
	}

	spec := func(mut func(*api.QuerySpec)) api.QuerySpec {
		s := api.QuerySpec{Query: q, K: 3}
		if mut != nil {
			mut(&s)
		}
		return s
	}
	body := func(v any) string {
		buf, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(buf)
	}
	// specError reads a 200 batch answer down to its one spec's error code
	specError := func(r io.Reader) string {
		var qr api.QueryResponse
		if err := json.NewDecoder(r).Decode(&qr); err != nil || len(qr.Results) != 1 {
			return fmt.Sprintf("undecodable batch answer (%v)", err)
		}
		if qr.Results[0].Error == nil {
			return "answered"
		}
		return fmt.Sprintf("spec failed with http %d", qr.Results[0].Error.HTTPStatus())
	}

	// stats reads a 200 stats answer down to what both tiers must agree on
	stats := func(r io.Reader) string {
		var st api.StatsResponse
		if err := json.NewDecoder(r).Decode(&st); err != nil {
			return fmt.Sprintf("undecodable stats (%v)", err)
		}
		return fmt.Sprintf("%d trajectories, uptime stamped %v, goroutines stamped %v",
			st.Engine.Trajectories, st.UptimeSeconds > 0, st.Goroutines > 0)
	}
	load := body(api.LoadRequest{Trajectories: []api.Trajectory{q}})
	missing := filepath.Join(t.TempDir(), "missing")

	rows := []struct {
		name string
		opts server.Options
		// method is the request's; "" is POST
		method string
		path   string
		body   string
		// recovering rows run with every node replaying its log
		recovering bool
		// midStream rows read one match record, wait out the deadline,
		// release the stall and read on to the terminal record
		midStream bool
		detail    func(io.Reader) string
		want      outcome
	}{
		{name: "bad JSON", path: "/v2/query", body: `{"specs":[`,
			want: outcome{status: 400, contentType: "application/json", code: api.CodeInvalidArgument}},
		{name: "unknown field", path: "/v2/query", body: `{"specs":[],"queries":[]}`,
			want: outcome{status: 400, contentType: "application/json", code: api.CodeInvalidArgument}},
		{name: "unknown field, stream", path: "/v2/query/stream", body: `{"spec":{},"k":3}`,
			want: outcome{status: 400, contentType: "application/json", code: api.CodeInvalidArgument}},
		{name: "empty batch", path: "/v2/query", body: `{"specs":[]}`,
			want: outcome{status: 400, contentType: "application/json", code: api.CodeInvalidArgument}},
		{name: "batch over MaxBatchSpecs", opts: server.Options{MaxBatchSpecs: 2}, path: "/v2/query",
			body: body(api.Query{Specs: []api.QuerySpec{spec(nil), spec(nil), spec(nil)}}),
			want: outcome{status: 400, contentType: "application/json", code: api.CodeInvalidArgument}},
		{name: "body over MaxBodyBytes", opts: server.Options{MaxBodyBytes: 64}, path: "/v2/query",
			body: body(api.Query{Specs: []api.QuerySpec{spec(nil)}}),
			want: outcome{status: 413, contentType: "application/json", code: api.CodeTooLarge}},
		{name: "timeout_ms above the cap is capped", opts: server.Options{MaxTimeout: time.Nanosecond}, path: "/v2/query",
			body:   body(api.Query{Specs: []api.QuerySpec{spec(nil)}, TimeoutMS: 60_000}),
			detail: specError,
			want:   outcome{status: 200, contentType: "application/json", detail: "spec failed with http 504"}},
		{name: "absurd timeout_ms does not overflow", path: "/v2/query",
			body:   body(api.Query{Specs: []api.QuerySpec{spec(nil)}, TimeoutMS: 1 << 60}),
			detail: specError,
			want:   outcome{status: 200, contentType: "application/json", detail: "answered"}},
		{name: "stream error before the first record", path: "/v2/query/stream",
			body: body(api.StreamQuery{Spec: spec(func(s *api.QuerySpec) { s.Measure = "nope" })}),
			want: outcome{status: 400, contentType: "application/json", code: api.CodeInvalidArgument}},
		{name: "stream error after the first record", path: "/v2/query/stream", midStream: true,
			body: body(api.StreamQuery{
				Spec:      spec(func(s *api.QuerySpec) { s.Measure, s.Algorithm = "stalldtw", "exacts" }),
				TimeoutMS: 150,
			}),
			want: outcome{status: 200, contentType: "application/x-ndjson", code: api.CodeTimeout, detail: "match, then error"}},
		{name: "overloaded carries Retry-After", path: "/v2/query/stream",
			body: body(api.StreamQuery{Spec: spec(nil)}), recovering: true,
			want: outcome{status: 503, contentType: "application/json", retryAfter: "1", code: api.CodeOverloaded}},
		{name: "trailing JSON value", path: "/v2/load", body: load + load,
			want: outcome{status: 400, contentType: "application/json", code: api.CodeInvalidArgument}},
		{name: "trailing garbage", path: "/v2/query", body: body(api.Query{Specs: []api.QuerySpec{spec(nil)}}) + "garbage",
			want: outcome{status: 400, contentType: "application/json", code: api.CodeInvalidArgument}},
		{name: "load: empty batch", path: "/v2/load", body: `{"trajectories":[]}`,
			want: outcome{status: 400, contentType: "application/json", code: api.CodeInvalidArgument}},
		{name: "load: bad point", path: "/v2/load", body: `{"trajectories":[{"points":[[0,0],[1]]}]}`,
			want: outcome{status: 400, contentType: "application/json", code: api.CodeInvalidArgument}},
		{name: "load while recovering", path: "/v2/load", body: load, recovering: true,
			want: outcome{status: 503, contentType: "application/json", retryAfter: "1", code: api.CodeOverloaded}},
		{name: "trajectory: non-integer id", method: http.MethodGet, path: "/v2/trajectories/first",
			want: outcome{status: 400, contentType: "application/json", code: api.CodeInvalidArgument}},
		{name: "trajectory: unknown id", method: http.MethodGet, path: "/v2/trajectories/4000",
			want: outcome{status: 404, contentType: "application/json", code: api.CodeNotFound}},
		{name: "trajectory while recovering", method: http.MethodGet, path: "/v2/trajectories/0", recovering: true,
			want: outcome{status: 503, contentType: "application/json", retryAfter: "1", code: api.CodeOverloaded}},
		{name: "stats", method: http.MethodGet, path: "/v2/stats", detail: stats,
			want: outcome{status: 200, contentType: "application/json", detail: "40 trajectories, uptime stamped true, goroutines stamped true"}},
		{name: "policy: none loaded", method: http.MethodGet, path: "/v2/admin/policy",
			want: outcome{status: 404, contentType: "application/json", code: api.CodeNotFound}},
		{name: "encoder: none loaded", method: http.MethodGet, path: "/v2/admin/encoder",
			want: outcome{status: 404, contentType: "application/json", code: api.CodeNotFound}},
		{name: "policy swap naming path and bytes", path: "/v2/admin/policy",
			body: body(api.PolicySwapRequest{Path: missing, PolicyB64: "eA=="}),
			want: outcome{status: 400, contentType: "application/json", code: api.CodeInvalidArgument}},
		{name: "encoder swap naming path and bytes", path: "/v2/admin/encoder",
			body: body(api.EncoderSwapRequest{Path: missing, EncoderB64: "eA=="}),
			want: outcome{status: 400, contentType: "application/json", code: api.CodeInvalidArgument}},
		{name: "swap naming a missing file", path: "/v2/admin/policy",
			body: body(api.PolicySwapRequest{Path: missing}),
			want: outcome{status: 404, contentType: "application/json", code: api.CodeNotFound}},
		{name: "swap naming a directory", path: "/v2/admin/policy",
			body: body(api.PolicySwapRequest{Path: filepath.Dir(missing)}),
			want: outcome{status: 500, contentType: "application/json", code: api.CodeInternal}},
	}
	for _, row := range rows {
		for _, fe := range fronts {
			t.Run(row.name+"/"+fe.name, func(t *testing.T) {
				h, setReady := fe.make(row.opts)
				srv := httptest.NewServer(h)
				defer srv.Close()
				if row.recovering {
					setReady(false)
					defer setReady(true)
				}
				if row.midStream {
					stallArm()
					defer stallOpen()
				}
				method := row.method
				if method == "" {
					method = http.MethodPost
				}
				req, err := http.NewRequest(method, srv.URL+row.path, strings.NewReader(row.body))
				if err != nil {
					t.Fatal(err)
				}
				req.Header.Set("Content-Type", "application/json")
				sent := time.Now()
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				got := outcome{
					status:      resp.StatusCode,
					contentType: resp.Header.Get("Content-Type"),
					retryAfter:  resp.Header.Get("Retry-After"),
				}
				switch {
				case row.midStream:
					br := bufio.NewReader(resp.Body)
					var ev api.StreamEvent
					line, err := br.ReadBytes('\n')
					if err != nil || json.Unmarshal(line, &ev) != nil || ev.Match == nil {
						t.Fatalf("first record %q is not a match (%v)", line, err)
					}
					// the request's 150 ms are up before the stalled scan may go on
					time.Sleep(time.Until(sent.Add(250 * time.Millisecond)))
					stallOpen()
					got.detail = "match"
					for {
						line, err := br.ReadBytes('\n')
						if err != nil {
							t.Fatalf("stream ended without a terminal record: %v", err)
						}
						ev = api.StreamEvent{}
						if err := json.Unmarshal(line, &ev); err != nil {
							t.Fatalf("bad stream record %q: %v", line, err)
						}
						if ev.Summary != nil {
							got.detail += ", then summary"
						} else if ev.Error != nil {
							got.detail += ", then error"
							got.code = ev.Error.Code
						} else {
							continue
						}
						break
					}
				case resp.StatusCode/100 == 2:
					if row.detail != nil {
						got.detail = row.detail(resp.Body)
					}
				default:
					var er api.ErrorResponse
					if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
						t.Fatalf("undecodable error envelope: %v", err)
					}
					got.code = er.Err.Code
				}
				if got != row.want {
					t.Errorf("got %+v\nwant %+v", got, row.want)
				}
			})
		}
	}
}
