package router

import (
	"bytes"
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"simsub/api"
	"simsub/client"
	"simsub/internal/engine"
	"simsub/internal/geo"
	"simsub/internal/nn"
	"simsub/internal/rl"
	"simsub/internal/server"
	"simsub/internal/traj"
)

func randTraj(rng *rand.Rand, n int) traj.Trajectory {
	pts := make([]geo.Point, n)
	x, y := rng.Float64()*10, rng.Float64()*10
	for i := range pts {
		x += rng.NormFloat64() * 0.3
		y += rng.NormFloat64() * 0.3
		pts[i] = geo.Point{X: x, Y: y, T: float64(i)}
	}
	return traj.New(pts...)
}

func randSet(rng *rand.Rand, n int) []traj.Trajectory {
	ts := make([]traj.Trajectory, n)
	for i := range ts {
		ts[i] = randTraj(rng, rng.Intn(14)+8)
	}
	return ts
}

func toWire(ts []traj.Trajectory) []api.Trajectory {
	out := make([]api.Trajectory, len(ts))
	for i, t := range ts {
		out[i] = api.FromTraj(t)
	}
	return out
}

// testNode is one fleet member: a real engine behind a real HTTP server.
type testNode struct {
	eng *engine.Engine
	h   *server.Server
	srv *httptest.Server
}

func startFleet(t *testing.T, n int) []*testNode {
	t.Helper()
	nodes := make([]*testNode, n)
	for i := range nodes {
		// ScanAll keeps the candidate set full (as the engine's own
		// equivalence tests do) so rankings fill K and bounds have teeth;
		// spatial-index pruning is exercised by the engine tests.
		eng := engine.New(engine.Config{Shards: 2, CacheSize: 64, Index: engine.ScanAll})
		h := server.New(eng, server.Options{})
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		nodes[i] = &testNode{eng: eng, h: h, srv: srv}
	}
	return nodes
}

func fleetURLs(nodes []*testNode) []string {
	urls := make([]string, len(nodes))
	for i, n := range nodes {
		urls[i] = n.srv.URL
	}
	return urls
}

func newTestRouter(t *testing.T, nodes []*testNode, mut func(*Config)) *Router {
	t.Helper()
	cfg := Config{Nodes: fleetURLs(nodes)}
	if mut != nil {
		mut(&cfg)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func mustLoad(t *testing.T, r *Router, ts []traj.Trajectory) {
	t.Helper()
	resp, err := r.Load(context.Background(), toWire(ts))
	if err != nil {
		t.Fatalf("router load: %v", err)
	}
	for i, id := range resp.IDs {
		if id != i {
			t.Fatalf("router assigned global id %d to trajectory %d; ids must be dense in load order", id, i)
		}
	}
}

// rankingMatrix is the measure × algorithm × query spec matrix the
// ranking-equivalence tests run.
func rankingMatrix(queries []traj.Trajectory, k int) []api.QuerySpec {
	var specs []api.QuerySpec
	for _, measure := range []string{"dtw", "frechet"} {
		for _, algo := range []string{"exacts", "pss", "pos"} {
			for _, q := range queries {
				specs = append(specs, api.QuerySpec{Query: api.FromTraj(q), K: k, Measure: measure, Algorithm: algo})
			}
		}
	}
	return specs
}

// TestRouterRankingsMatchSingleEngine is the distributed-correctness
// anchor: a router over three shard nodes must answer every spec with the
// byte-identical ranking a single engine holding the same corpus produces,
// across measures and algorithms, with bound propagation both on and off.
func TestRouterRankingsMatchSingleEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ts := randSet(rng, 1000)
	queries := []traj.Trajectory{randTraj(rng, 6), randTraj(rng, 9)}

	single := engine.New(engine.Config{Shards: 4, Index: engine.ScanAll})
	single.Add(ts)

	for _, propagate := range []bool{true, false} {
		nodes := startFleet(t, 3)
		r := newTestRouter(t, nodes, func(c *Config) { c.NoBoundPropagation = !propagate })
		mustLoad(t, r, ts)
		for si, spec := range rankingMatrix(queries, 25) {
			want := single.QueryOne(context.Background(), spec)
			got := r.QueryOne(context.Background(), spec)
			if want.Error != nil || got.Error != nil {
				t.Fatalf("spec %d (%s/%s) propagate=%v: errors %v / %v", si, spec.Measure, spec.Algorithm, propagate, want.Error, got.Error)
			}
			if got.Partial != nil {
				t.Fatalf("spec %d (%s/%s): unexpected partial %+v", si, spec.Measure, spec.Algorithm, got.Partial)
			}
			if !reflect.DeepEqual(got.Matches, want.Matches) || got.Total != want.Total {
				t.Fatalf("spec %d (%s/%s) propagate=%v: router ranking diverged from single engine\ngot  %+v\nwant %+v",
					si, spec.Measure, spec.Algorithm, propagate, got.Matches, want.Matches)
			}
		}
		if propagate {
			st, err := r.Stats(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if st.Router.BoundsPropagated == 0 {
				t.Error("multi-group scatter propagated no bounds")
			}
			if st.Router.Queries == 0 || st.Router.Groups != 3 {
				t.Errorf("router stats off: %+v", st.Router)
			}
		}
	}
}

// TestRouterSpecDimensions checks the global handling of the spec
// dimensions the router must apply after the merge — paging, distinct
// collapsing over cross-load duplicates, spatial filters — and the
// per-node k clamp when a group holds fewer than k trajectories.
func TestRouterSpecDimensions(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	base := randSet(rng, 60)
	ts := append(append([]traj.Trajectory{}, base...), base...) // every trajectory loaded twice

	single := engine.New(engine.Config{Shards: 4, Index: engine.ScanAll})
	single.Add(ts)
	nodes := startFleet(t, 3)
	r := newTestRouter(t, nodes, nil)
	mustLoad(t, r, ts)

	q := api.FromTraj(randTraj(rng, 6))
	f := &api.Rect{MinX: -100, MinY: -100, MaxX: 100, MaxY: 100}
	specs := []api.QuerySpec{
		{Query: q, K: 20, Offset: 3, Limit: 5},
		{Query: q, K: 20, Distinct: true},
		{Query: q, K: 10, Filter: f, Algorithm: "pss"},
		{Query: q, K: 120}, // exceeds every group's share: per-node k clamps
	}
	resp, err := r.Query(context.Background(), api.Query{Specs: specs})
	if err != nil {
		t.Fatal(err)
	}
	wantResp, err := single.Query(context.Background(), api.Query{Specs: specs})
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		got, want := resp.Results[i], wantResp.Results[i]
		if got.Error != nil || want.Error != nil {
			t.Fatalf("spec %d: errors %v / %v", i, got.Error, want.Error)
		}
		if !reflect.DeepEqual(got.Matches, want.Matches) || got.Total != want.Total {
			t.Errorf("spec %d: router diverged\ngot  %+v (total %d)\nwant %+v (total %d)",
				i, got.Matches, got.Total, want.Matches, want.Total)
		}
	}
}

// TestRouterStreamMatchesUnary checks the streamed scatter: the summary
// must carry the same authoritative ranking as the unary path (and the
// single engine), with provisional records preceding it.
func TestRouterStreamMatchesUnary(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	ts := randSet(rng, 150)
	single := engine.New(engine.Config{Shards: 4, Index: engine.ScanAll})
	single.Add(ts)
	nodes := startFleet(t, 3)
	r := newTestRouter(t, nodes, nil)
	mustLoad(t, r, ts)

	spec := api.QuerySpec{Query: api.FromTraj(randTraj(rng, 7)), K: 12}
	want := single.QueryOne(context.Background(), spec)
	var provisional []api.Match
	sum, err := r.QueryStream(context.Background(), spec, func(m api.Match) error {
		provisional = append(provisional, m)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sum.Matches, want.Matches) || sum.Total != want.Total {
		t.Fatalf("stream summary diverged from single engine\ngot  %+v\nwant %+v", sum.Matches, want.Matches)
	}
	if sum.Partial != nil {
		t.Fatalf("unexpected partial: %+v", sum.Partial)
	}
	if len(provisional) == 0 || sum.Emitted != len(provisional) {
		t.Fatalf("emitted %d provisional records, summary says %d", len(provisional), sum.Emitted)
	}
	// every final match must have been provisionally emitted at some point
	seen := map[api.Match]bool{}
	for _, m := range provisional {
		seen[m] = true
	}
	for _, m := range sum.Matches {
		if !seen[m] {
			t.Errorf("final match %+v never streamed provisionally", m)
		}
	}

	// an emit error aborts the stream and returns unchanged
	boom := errors.New("boom")
	if _, err := r.QueryStream(context.Background(), spec, func(api.Match) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("emit error came back as %v, want boom", err)
	}

	// the whole ranking matrix, through the unary (nil emit) and the
	// streamed (emit) form of the one scatter, bound propagation on and off:
	// both must equal the single engine's ranking
	queries := []traj.Trajectory{randTraj(rng, 6), randTraj(rng, 9)}
	for _, propagate := range []bool{true, false} {
		pr := newTestRouter(t, startFleet(t, 3), func(c *Config) { c.NoBoundPropagation = !propagate })
		mustLoad(t, pr, ts)
		for si, spec := range rankingMatrix(queries, 25) {
			want := single.QueryOne(context.Background(), spec)
			unary := pr.QueryOne(context.Background(), spec)
			emitted := 0
			sum, err := pr.QueryStream(context.Background(), spec, func(api.Match) error { emitted++; return nil })
			if want.Error != nil || unary.Error != nil || err != nil {
				t.Fatalf("spec %d (%s/%s) propagate=%v: errors %v / %v / %v", si, spec.Measure, spec.Algorithm, propagate, want.Error, unary.Error, err)
			}
			if !reflect.DeepEqual(unary.Matches, want.Matches) || unary.Total != want.Total {
				t.Fatalf("spec %d (%s/%s) propagate=%v: unary ranking diverged from single engine", si, spec.Measure, spec.Algorithm, propagate)
			}
			if !reflect.DeepEqual(sum.Matches, want.Matches) || sum.Total != want.Total || sum.Partial != nil {
				t.Fatalf("spec %d (%s/%s) propagate=%v: streamed summary diverged from single engine\ngot  %+v\nwant %+v",
					si, spec.Measure, spec.Algorithm, propagate, sum.Matches, want.Matches)
			}
			if sum.Emitted != emitted || emitted < len(sum.Matches) {
				t.Fatalf("spec %d: summary counts %d emissions, emit saw %d, final ranking has %d", si, sum.Emitted, emitted, len(sum.Matches))
			}
		}
	}
}

// TestRouterPartialOnDeadNode kills one of two shard groups and checks the
// query degrades to a typed partial answer — the exact ranking over the
// surviving group's corpus — instead of failing.
func TestRouterPartialOnDeadNode(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	ts := randSet(rng, 120)
	nodes := startFleet(t, 2)
	r := newTestRouter(t, nodes, func(c *Config) {
		c.Retry = client.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	})
	mustLoad(t, r, ts)

	nodes[0].srv.Close()
	spec := api.QuerySpec{Query: api.FromTraj(randTraj(rng, 6)), K: 10}
	res := r.QueryOne(context.Background(), spec)
	if res.Error != nil {
		t.Fatalf("dead shard group failed the query: %v", res.Error)
	}
	if res.Partial == nil {
		t.Fatal("dead shard group produced no partial summary")
	}
	if res.Partial.NodesTotal != 2 || res.Partial.NodesFailed != 1 || len(res.Partial.Failures) != 1 {
		t.Fatalf("partial summary off: %+v", res.Partial)
	}
	if res.Partial.Failures[0].Node != nodes[0].srv.URL {
		t.Errorf("partial blames %q, want %q", res.Partial.Failures[0].Node, nodes[0].srv.URL)
	}

	// the degraded answer must be the exact ranking over the survivor
	survivor := engine.New(engine.Config{Shards: 2, Index: engine.ScanAll})
	r.mu.RLock()
	var kept []traj.Trajectory
	for _, gid := range r.groups[1].globals {
		kept = append(kept, ts[gid])
	}
	r.mu.RUnlock()
	survivor.Add(kept)
	wantLocal := survivor.QueryOne(context.Background(), spec)
	if len(res.Matches) != len(wantLocal.Matches) {
		t.Fatalf("degraded ranking has %d matches, survivor engine %d", len(res.Matches), len(wantLocal.Matches))
	}
	for i := range res.Matches {
		got, want := res.Matches[i], wantLocal.Matches[i]
		if got.Dist != want.Dist || got.Start != want.Start || got.End != want.End {
			t.Errorf("rank %d: degraded %+v vs survivor %+v", i, got, want)
		}
	}

	st, err := r.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Router.PartialResults == 0 {
		t.Error("partial answer not counted in router stats")
	}
	if st.Router.Nodes[0].Healthy {
		t.Error("dead node still marked healthy after failed contact")
	}

	// with every group dead the query must fail, not answer empty
	nodes[1].srv.Close()
	res = r.QueryOne(context.Background(), spec)
	if res.Error == nil {
		t.Fatal("query answered with the whole fleet dead")
	}
	if err := r.Health(context.Background()); err == nil {
		t.Fatal("health reported ok with the whole fleet dead")
	}
}

// TestRouterReplicaFailover checks replication: with two replicas per
// group, a dead replica costs nothing — queries fail over and stay
// complete (no partial), and both replicas hold every trajectory.
func TestRouterReplicaFailover(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	ts := randSet(rng, 80)
	nodes := startFleet(t, 2)
	r := newTestRouter(t, nodes, func(c *Config) {
		c.Replication = 2
		c.NoHedge = true
		c.Retry = client.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	})
	mustLoad(t, r, ts)
	if n0, n1 := nodes[0].eng.Len(), nodes[1].eng.Len(); n0 != len(ts) || n1 != len(ts) {
		t.Fatalf("replicas hold %d / %d trajectories, want %d each", n0, n1, len(ts))
	}

	nodes[0].srv.Close()
	spec := api.QuerySpec{Query: api.FromTraj(randTraj(rng, 6)), K: 8}
	for i := 0; i < 3; i++ { // rotation makes the dead replica primary sometimes
		res := r.QueryOne(context.Background(), spec)
		if res.Error != nil {
			t.Fatalf("query %d failed despite a live replica: %v", i, res.Error)
		}
		if res.Partial != nil {
			t.Fatalf("query %d degraded despite a live replica: %+v", i, res.Partial)
		}
	}
	if err := r.Health(context.Background()); err != nil {
		t.Fatalf("health failed with one live replica per group: %v", err)
	}
}

// TestRouterFailsOverRecoveringNode checks the durability follow-through:
// a node replaying its persistent log answers data-path requests with 503
// overloaded, which the router must treat as degradable — failing over to
// the ready replica with complete (non-partial) answers — while fleet
// stats surface the node's self-reported "recovering" state.
func TestRouterFailsOverRecoveringNode(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	ts := randSet(rng, 80)
	nodes := startFleet(t, 2)
	r := newTestRouter(t, nodes, func(c *Config) {
		c.Replication = 2
		c.NoHedge = true
		c.Retry = client.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	})
	mustLoad(t, r, ts)

	nodes[0].h.SetReady(false) // node 0 is now "replaying its log"
	spec := api.QuerySpec{Query: api.FromTraj(randTraj(rng, 6)), K: 8}
	for i := 0; i < 3; i++ { // rotation makes the recovering replica primary sometimes
		res := r.QueryOne(context.Background(), spec)
		if res.Error != nil {
			t.Fatalf("query %d failed despite a ready replica: %v", i, res.Error)
		}
		if res.Partial != nil {
			t.Fatalf("query %d degraded despite a ready replica: %+v", i, res.Partial)
		}
	}

	st, err := r.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Router.Nodes[0].State; got != api.StateRecovering {
		t.Errorf("recovering node reports state %q, want %q", got, api.StateRecovering)
	}
	if got := st.Router.Nodes[1].State; got != api.StateReady {
		t.Errorf("ready node reports state %q, want %q", got, api.StateReady)
	}

	// recovery finishes: the node serves again and stats flip back
	nodes[0].h.SetReady(true)
	if res := r.QueryOne(context.Background(), spec); res.Error != nil || res.Partial != nil {
		t.Fatalf("query after recovery: err=%v partial=%+v", res.Error, res.Partial)
	}
	st, err = r.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Router.Nodes[0].State; got != api.StateReady {
		t.Errorf("recovered node reports state %q, want %q", got, api.StateReady)
	}
}

// TestRouterHedgedRequests wraps one replica in a long delay and checks
// the hedge timer rescues the query via the other replica, fast.
func TestRouterHedgedRequests(t *testing.T) {
	eng0 := engine.New(engine.Config{Shards: 2, Index: engine.ScanAll})
	eng1 := engine.New(engine.Config{Shards: 2, Index: engine.ScanAll})
	h0 := server.New(eng0, server.Options{})
	delay := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, rq *http.Request) {
		if rq.URL.Path != "/v2/load" { // loads pass; queries hang until released
			select {
			case <-delay:
			case <-rq.Context().Done():
				return
			}
		}
		h0.ServeHTTP(w, rq)
	}))
	defer slow.Close()
	defer close(delay)
	fast := httptest.NewServer(server.New(eng1, server.Options{}))
	defer fast.Close()

	r, err := New(Config{
		Nodes:       []string{slow.URL, fast.URL},
		Replication: 2,
		HedgeMin:    5 * time.Millisecond,
		NodeTimeout: 2 * time.Second, // the stalled replica must not stall best-effort fan-outs
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(47))
	ts := randSet(rng, 40)
	mustLoad(t, r, ts)

	spec := api.QuerySpec{Query: api.FromTraj(randTraj(rng, 6)), K: 5}
	start := time.Now()
	res := r.QueryOne(context.Background(), spec)
	if res.Error != nil {
		t.Fatalf("hedged query failed: %v", res.Error)
	}
	if res.Partial != nil {
		t.Fatalf("hedged query degraded: %+v", res.Partial)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("hedge did not rescue the query (took %v)", took)
	}
	if r.hedges.Load() == 0 {
		t.Fatal("no hedge launched against the stalled primary")
	}
	st, err := r.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Router.Hedges == 0 {
		t.Error("hedges missing from router stats")
	}
}

// TestRouterBoundPropagationPrunes checks the wire bound does real work on
// the remote shards: after a propagated scatter, the non-pilot nodes must
// report lb_skipped > 0 — candidates dropped against the shipped global
// k-th-best before any dynamic programming ran.
func TestRouterBoundPropagationPrunes(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	ts := randSet(rng, 600)
	nodes := startFleet(t, 3)
	r := newTestRouter(t, nodes, nil)
	mustLoad(t, r, ts)

	spec := api.QuerySpec{Query: api.FromTraj(randTraj(rng, 6)), K: 3, Algorithm: "pss"}
	if res := r.QueryOne(context.Background(), spec); res.Error != nil {
		t.Fatal(res.Error)
	}
	if r.bounds.Load() == 0 {
		t.Fatal("scatter shipped no bound")
	}
	var skipped int64
	for _, n := range nodes {
		skipped += n.eng.Stats().LBSkipped
	}
	if skipped == 0 {
		t.Error("no shard pruned against the propagated bound (lb_skipped == 0 fleet-wide)")
	}
}

// TestRouterPolicyBroadcast swaps a learned-search policy through the
// router and checks every node serves it, fingerprints agree, and a
// diverged fleet is detected.
func TestRouterPolicyBroadcast(t *testing.T) {
	nodes := startFleet(t, 3)
	r := newTestRouter(t, nodes, nil)

	if _, err := r.Policy(context.Background()); err == nil {
		t.Fatal("policy reported before any was registered")
	}

	p := testPolicy(1, 0, true)
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	req := api.PolicySwapRequest{PolicyB64: base64.StdEncoding.EncodeToString(buf.Bytes())}
	info, err := r.SwapPolicy(context.Background(), req)
	if err != nil {
		t.Fatalf("broadcast swap: %v", err)
	}
	if info.Fingerprint == "" {
		t.Fatal("swap returned no fingerprint")
	}
	for i, n := range nodes {
		ni, ok := n.eng.Policy()
		if !ok || ni.Fingerprint != info.Fingerprint {
			t.Fatalf("node %d does not serve the broadcast policy (%+v)", i, ni)
		}
	}
	got, err := r.Policy(context.Background())
	if err != nil || got.Fingerprint != info.Fingerprint {
		t.Fatalf("router policy readback: %+v, %v", got, err)
	}

	// diverge one node behind the router's back: the readback must refuse
	// to pretend the fleet is consistent
	if _, err := nodes[2].eng.SetPolicy(testPolicy(0, 2, false)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Policy(context.Background()); err == nil {
		t.Fatal("diverged fleet not detected")
	}

	// swap requests must name exactly one source
	if _, err := r.SwapPolicy(context.Background(), api.PolicySwapRequest{}); err == nil {
		t.Fatal("empty swap request accepted")
	}
}

// TestRouterSwapPolicyCarriesCompileResolution checks a Path swap is the
// same swap as its inline form: the router's path → bytes rewrite must keep
// compile_resolution, so both install a compiled table fleet-wide under one
// fingerprint, and a negative resolution is the node's typed
// invalid_argument, not a broadcast failure.
func TestRouterSwapPolicyCarriesCompileResolution(t *testing.T) {
	nodes := startFleet(t, 2)
	r := newTestRouter(t, nodes, nil)

	var buf bytes.Buffer
	if err := testPolicy(1, 0, true).Save(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fleet.policy")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	b64 := base64.StdEncoding.EncodeToString(buf.Bytes())

	inline, err := r.SwapPolicy(context.Background(), api.PolicySwapRequest{PolicyB64: b64, CompileResolution: 8})
	if err != nil {
		t.Fatalf("inline swap: %v", err)
	}
	if !inline.Compiled || inline.CompileResolution != 8 {
		t.Fatalf("inline swap installed %+v, want a table compiled at resolution 8", inline)
	}
	// drop the table so the path swap has to install it again itself
	if _, err := r.SwapPolicy(context.Background(), api.PolicySwapRequest{PolicyB64: b64}); err != nil {
		t.Fatal(err)
	}
	byPath, err := r.SwapPolicy(context.Background(), api.PolicySwapRequest{Path: path, CompileResolution: 8})
	if err != nil {
		t.Fatalf("path swap: %v", err)
	}
	if byPath.Compiled != inline.Compiled || byPath.CompileResolution != inline.CompileResolution ||
		byPath.Fingerprint != inline.Fingerprint {
		t.Fatalf("path swap installed %+v, inline swap %+v: the same request in two forms", byPath, inline)
	}
	for i, n := range nodes {
		if ni, ok := n.eng.Policy(); !ok || !ni.Compiled || ni.Fingerprint != byPath.Fingerprint {
			t.Fatalf("node %d serves %+v after the path swap, want the compiled table", i, ni)
		}
	}

	for _, req := range []api.PolicySwapRequest{
		{Path: path, CompileResolution: -1},
		{PolicyB64: b64, CompileResolution: -1},
	} {
		var ae *api.Error
		if _, err := r.SwapPolicy(context.Background(), req); !errors.As(err, &ae) || ae.Code != api.CodeInvalidArgument {
			t.Fatalf("negative compile_resolution: %v, want typed invalid_argument", err)
		}
	}
}

// TestRouterStatsWeighQualityMeans checks the fleet's sampled serving
// quality: approx_ratio, mean_rank and skipped_fraction are the nodes'
// means weighted by their quality_samples, as mean_recall is by
// recall_samples.
func TestRouterStatsWeighQualityMeans(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	nodes := make([]*testNode, 2)
	for i := range nodes {
		eng := engine.New(engine.Config{Shards: 2, Index: engine.ScanAll, QualitySample: 1})
		srv := httptest.NewServer(server.New(eng, server.Options{}))
		t.Cleanup(srv.Close)
		nodes[i] = &testNode{eng: eng, srv: srv}
	}
	r := newTestRouter(t, nodes, nil)
	mustLoad(t, r, randSet(rng, 60))
	var buf bytes.Buffer
	if err := testPolicy(2, 1, false).Save(&buf); err != nil { // skip policy
		t.Fatal(err)
	}
	if _, err := r.SwapPolicy(context.Background(), api.PolicySwapRequest{PolicyB64: base64.StdEncoding.EncodeToString(buf.Bytes())}); err != nil {
		t.Fatal(err)
	}
	spec := func() api.QuerySpec {
		return api.QuerySpec{Query: api.FromTraj(randTraj(rng, 5)), K: 5, Measure: "dtw", Algorithm: "rls-skip"}
	}
	for range 3 {
		if res := r.QueryOne(context.Background(), spec()); res.Error != nil {
			t.Fatal(res.Error)
		}
	}
	// node 0 alone serves more, so the two weights differ
	for range 4 {
		if res := nodes[0].eng.QueryOne(context.Background(), spec()); res.Error != nil {
			t.Fatal(res.Error)
		}
	}
	a, b := nodes[0].eng.Stats(), nodes[1].eng.Stats()
	if a.QualitySamples == b.QualitySamples || b.QualitySamples == 0 {
		t.Fatalf("quality samples %d and %d, want two different non-zero weights", a.QualitySamples, b.QualitySamples)
	}
	st, err := r.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	n := float64(a.QualitySamples + b.QualitySamples)
	if st.Engine.QualitySamples != a.QualitySamples+b.QualitySamples {
		t.Errorf("quality_samples = %d, want %d", st.Engine.QualitySamples, a.QualitySamples+b.QualitySamples)
	}
	for _, f := range []struct {
		name      string
		got, x, y float64
	}{
		{"approx_ratio", st.Engine.ApproxRatio, a.ApproxRatio, b.ApproxRatio},
		{"mean_rank", st.Engine.MeanRank, a.MeanRank, b.MeanRank},
		{"skipped_fraction", st.Engine.SkippedFraction, a.SkippedFraction, b.SkippedFraction},
	} {
		want := (f.x*float64(a.QualitySamples) + f.y*float64(b.QualitySamples)) / n
		if want == 0 || math.Abs(f.got-want) > 1e-12*want {
			t.Errorf("%s = %v, want the weighted mean %v of %v and %v", f.name, f.got, want, f.x, f.y)
		}
	}
}

// testPolicy builds a deterministic constant-action policy (the same
// construction as the engine and core tests).
func testPolicy(action, k int, useSuffix bool) *rl.Policy {
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
	return &rl.Policy{Net: net, K: k, UseSuffix: useSuffix, SimplifyState: k > 0}
}

// TestRouterGetTrajectory checks global-ID translation round-trips.
func TestRouterGetTrajectory(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	ts := randSet(rng, 50)
	nodes := startFleet(t, 3)
	r := newTestRouter(t, nodes, nil)
	mustLoad(t, r, ts)

	for _, id := range []int{0, 7, 23, 49} {
		rec, err := r.GetTrajectory(context.Background(), id)
		if err != nil {
			t.Fatalf("fetch %d: %v", id, err)
		}
		if rec.ID != id {
			t.Fatalf("fetch %d returned id %d", id, rec.ID)
		}
		got, aerr := rec.Trajectory.ToTraj()
		if aerr != nil {
			t.Fatal(aerr)
		}
		if !got.Equal(ts[id]) {
			t.Fatalf("fetch %d returned the wrong trajectory", id)
		}
	}
	if _, err := r.GetTrajectory(context.Background(), 50); err == nil {
		t.Fatal("out-of-range id fetched")
	}
	var ae *api.Error
	if _, err := r.GetTrajectory(context.Background(), -1); !errors.As(err, &ae) || ae.Code != api.CodeNotFound {
		t.Fatalf("negative id: %v, want typed not_found", err)
	}
}

// TestRouterValidation checks the router-level wire checks reject bad
// specs and configs with typed errors before any node is contacted.
func TestRouterValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty node list accepted")
	}
	if _, err := New(Config{Nodes: []string{"a", "b", "c"}, Replication: 2}); err == nil {
		t.Fatal("replication 2 over 3 nodes accepted")
	}

	nodes := startFleet(t, 2)
	r := newTestRouter(t, nodes, nil)
	rng := rand.New(rand.NewSource(50))
	mustLoad(t, r, randSet(rng, 10))
	q := api.FromTraj(randTraj(rng, 5))

	neg := -1.0
	for name, spec := range map[string]api.QuerySpec{
		"zero k":         {Query: q},
		"k beyond store": {Query: q, K: 11},
		"bad offset":     {Query: q, K: 3, Offset: -1},
		"bad limit":      {Query: q, K: 3, Limit: -2},
		"negative bound": {Query: q, K: 3, Bound: &neg},
		"empty query":    {K: 3},
	} {
		res := r.QueryOne(context.Background(), spec)
		if res.Error == nil || res.Error.Code != api.CodeInvalidArgument {
			t.Errorf("%s: error %+v, want typed invalid_argument", name, res.Error)
		}
	}
	// unknown measures are the nodes' call — still a deterministic typed
	// rejection, never a partial
	res := r.QueryOne(context.Background(), api.QuerySpec{Query: q, K: 3, Measure: "nope"})
	if res.Error == nil || res.Error.Code != api.CodeInvalidArgument || res.Partial != nil {
		t.Errorf("unknown measure: %+v", res)
	}
	if _, err := r.Query(context.Background(), api.Query{}); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := r.Load(context.Background(), nil); err == nil {
		t.Error("empty load accepted")
	}
}

// TestPlacementPinned pins ring placement to the values the content hash
// and ring produced when the hash was the router's own copy: for a seeded
// corpus, every trajectory's group under 2, 3 and 5 groups (64 vnodes), and
// a checksum of the hashes themselves. A change to traj.Digest or the ring
// would move stored trajectories between groups; this test fails first.
func TestPlacementPinned(t *testing.T) {
	ts := randSet(rand.New(rand.NewSource(35)), 120)
	for _, tc := range []struct {
		groups int
		want   string
	}{
		{2, "101100101101010010100011100100000100001011100000000010101010101000000010101001001001110010000000011100000111001001011011"},
		{3, "221100121102010210200011100100200100001012100000200220101020221000002022101002201201210012000000212100002111002002011011"},
		{5, "221140141142414410200311104134443144441412104340440424141424241444044024141442401441214414404403412100004111342042011411"},
	} {
		r := buildRing(tc.groups, 64)
		got := make([]byte, len(ts))
		for i, tr := range ts {
			got[i] = byte('0' + r.locate(tr.Digest()))
		}
		if string(got) != tc.want {
			t.Errorf("%d groups: placement\n got %s\nwant %s", tc.groups, got, tc.want)
		}
	}
	h := fnv.New64a()
	for _, tr := range ts {
		fmt.Fprintf(h, "%016x", tr.Digest())
	}
	if got := h.Sum64(); got != 0x62086cada72b6554 {
		t.Errorf("content-hash checksum %#x, want 0x62086cada72b6554", got)
	}
	if got := ts[0].Digest(); got != 0xdb825e1c44e9f5e0 {
		t.Errorf("first trajectory's hash %#x, want 0xdb825e1c44e9f5e0", got)
	}
}
