package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"simsub/internal/geo"
	"simsub/internal/nn"
	"simsub/internal/rl"
	"simsub/internal/sim"
	"simsub/internal/traj"
)

// constPolicy builds a policy that always takes the given action.
func constPolicy(action, k int, useSuffix, simplify bool) *rl.Policy {
	dim := rl.StateDim(useSuffix)
	actions := 2 + k
	net := nn.NewMLP([]int{dim, 2, actions}, []nn.Activation{nn.ReLU, nn.Sigmoid}, rand.New(rand.NewSource(1)))
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

func TestRLSNames(t *testing.T) {
	cases := []struct {
		p    *rl.Policy
		want string
	}{
		{constPolicy(0, 0, true, false), "RLS"},
		{constPolicy(0, 3, true, true), "RLS-Skip"},
		{constPolicy(0, 3, false, true), "RLS-Skip+"},
	}
	for _, c := range cases {
		if got := (RLS{M: sim.DTW{}, Policy: c.p}).Name(); got != c.want {
			t.Errorf("Name = %q, want %q", got, c.want)
		}
	}
}

func TestRLSNeverSplitEqualsPrefixSuffixScan(t *testing.T) {
	// a never-split policy scans one growing prefix plus all suffixes; the
	// result must be the minimum over those candidates
	rng := rand.New(rand.NewSource(20))
	m := sim.DTW{}
	for trial := 0; trial < 10; trial++ {
		data := randTraj(rng, rng.Intn(12)+2)
		q := randTraj(rng, rng.Intn(5)+1)
		got := (RLS{M: m, Policy: constPolicy(0, 0, true, false)}).Search(data, q)
		want := math.Inf(1)
		n := data.Len()
		for i := 0; i < n; i++ {
			if d := m.Dist(data.Sub(0, i), q); d < want {
				want = d
			}
			if d := m.Dist(data.Sub(i, n-1), q); d < want {
				want = d
			}
		}
		if math.Abs(got.Dist-want) > 1e-9 {
			t.Fatalf("trial %d: never-split RLS %v, want %v", trial, got.Dist, want)
		}
	}
}

func TestRLSAlwaysSplitEqualsPointScan(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m := sim.DTW{}
	data := randTraj(rng, 10)
	q := randTraj(rng, 4)
	got := (RLS{M: m, Policy: constPolicy(1, 0, false, false)}).Search(data, q)
	want := math.Inf(1)
	for i := 0; i < data.Len(); i++ {
		if d := m.Dist(data.Sub(i, i), q); d < want {
			want = d
		}
	}
	if math.Abs(got.Dist-want) > 1e-9 {
		t.Errorf("always-split RLS %v, want %v", got.Dist, want)
	}
}

func TestRLSValidResults(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	data := make([]traj.Trajectory, 8)
	queries := make([]traj.Trajectory, 8)
	for i := range data {
		data[i] = randTraj(rng, 15)
		queries[i] = randTraj(rng, 5)
	}
	p, _, err := rl.Train(data, queries, sim.DTW{}, rl.Config{Episodes: 25, Seed: 5, UseSuffix: true})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	alg := RLS{M: sim.DTW{}, Policy: p}
	exact := ExactS{M: sim.DTW{}}
	for trial := 0; trial < 10; trial++ {
		d := randTraj(rng, rng.Intn(15)+2)
		q := randTraj(rng, rng.Intn(5)+1)
		got := alg.Search(d, q)
		if !got.Interval.Valid(d.Len()) {
			t.Fatalf("invalid interval %v for n=%d", got.Interval, d.Len())
		}
		if ex := exact.Search(d, q); got.Dist < ex.Dist-1e-9 {
			t.Fatalf("RLS dist %v beats exact %v", got.Dist, ex.Dist)
		}
	}
}

func TestRLSSkipSearchAndSkippedFraction(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	data := randTraj(rng, 40)
	q := randTraj(rng, 6)
	// constant skip-1 policy (action 2 with k=1): every step skips one point
	p := constPolicy(2, 1, false, true)
	got := (RLS{M: sim.DTW{}, Policy: p}).Search(data, q)
	if !got.Interval.Valid(data.Len()) {
		t.Fatalf("invalid interval %v", got.Interval)
	}
	frac := SkippedFraction(sim.DTW{}, p, data, q)
	// skipping every other point leaves about half unscanned
	if frac < 0.3 || frac > 0.6 {
		t.Errorf("skipped fraction = %v, want about 0.5", frac)
	}
	// a never-skip policy skips nothing
	if f0 := SkippedFraction(sim.DTW{}, constPolicy(0, 1, false, true), data, q); f0 != 0 {
		t.Errorf("never-skip policy skipped %v", f0)
	}
}

func TestRLSSkipFasterThanRLSOnExplored(t *testing.T) {
	// with state simplification, a skipping policy performs fewer
	// similarity evaluations than a non-skipping one
	rng := rand.New(rand.NewSource(24))
	data := randTraj(rng, 60)
	q := randTraj(rng, 8)
	noSkip := (RLS{M: sim.DTW{}, Policy: constPolicy(0, 3, false, true)}).Search(data, q)
	skip := (RLS{M: sim.DTW{}, Policy: constPolicy(4, 3, false, true)}).Search(data, q) // skip 3 each step
	if skip.Explored >= noSkip.Explored {
		t.Errorf("skipping explored %d, non-skipping %d", skip.Explored, noSkip.Explored)
	}
}

func TestRLSWalkthroughShape(t *testing.T) {
	// Table 4 walk-through shape: a skip policy on a 5-point trajectory with
	// k=1 visits p1, may skip p3, and finishes at p5; the returned interval
	// is valid and its tracked distance matches a real subtrajectory's
	// distance under full-state maintenance.
	data := traj.FromXY(0, 0, 1, 0, 2, 0, 3, 0, 4, 0)
	q := traj.FromXY(1, 0, 2, 0, 3, 0)
	p := constPolicy(2, 1, true, false) // always skip 1, full state
	got := (RLS{M: sim.DTW{}, Policy: p}).Search(data, q)
	if !got.Interval.Valid(5) {
		t.Fatalf("invalid interval %v", got.Interval)
	}
	re := ExactDist(sim.DTW{}, data, q, got)
	if math.Abs(re-got.Dist) > 1e-9 {
		t.Errorf("full-state RLS-Skip tracked dist %v but interval scores %v", got.Dist, re)
	}
}

func TestRLSTrainedBeatsNeverSplitOnStructuredData(t *testing.T) {
	// construct pairs where the query matches a strict interior segment, so
	// splitting is necessary for a good answer; a trained policy should do
	// at least as well as the never-split baseline on average
	rng := rand.New(rand.NewSource(25))
	make2 := func() (traj.Trajectory, traj.Trajectory) {
		q := randTraj(rng, 5)
		pre := randTraj(rng, 5).Translate(30, 30)
		post := randTraj(rng, 5).Translate(-30, -30)
		pts := append(append(append([]geo.Point{}, pre.Points...), q.Points...), post.Points...)
		return traj.New(pts...), q
	}
	var data, queries []traj.Trajectory
	for i := 0; i < 20; i++ {
		d, q := make2()
		data = append(data, d)
		queries = append(queries, q)
	}
	p, _, err := rl.Train(data, queries, sim.DTW{}, rl.Config{Episodes: 120, Seed: 6, UseSuffix: true})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	trained := RLS{M: sim.DTW{}, Policy: p}
	never := RLS{M: sim.DTW{}, Policy: constPolicy(0, 0, true, false)}
	var sumTrained, sumNever float64
	for i := 0; i < 20; i++ {
		d, q := make2()
		sumTrained += trained.Search(d, q).Dist
		sumNever += never.Search(d, q).Dist
	}
	if sumTrained > sumNever*1.05 {
		t.Errorf("trained policy (%v) notably worse than never-split baseline (%v)", sumTrained, sumNever)
	}
}

func TestRLSSearchGuards(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	data := randTraj(rng, 8)
	q := randTraj(rng, 3)
	p := constPolicy(0, 0, true, false)
	cases := []struct {
		name string
		alg  RLS
		t, q traj.Trajectory
	}{
		{"nil policy", RLS{M: sim.DTW{}}, data, q},
		{"netless policy", RLS{M: sim.DTW{}, Policy: &rl.Policy{}}, data, q},
		{"empty data", RLS{M: sim.DTW{}, Policy: p}, traj.Trajectory{}, q},
		{"empty query", RLS{M: sim.DTW{}, Policy: p}, data, traj.Trajectory{}},
	}
	for _, c := range cases {
		got := c.alg.Search(c.t, c.q) // must not panic
		if !math.IsInf(got.Dist, 1) || got.Explored != 0 {
			t.Errorf("%s: Search = %+v, want empty Inf result", c.name, got)
		}
	}
	// Name on a nil policy must not panic either
	if got := (RLS{M: sim.DTW{}}).Name(); got != "RLS" {
		t.Errorf("nil-policy Name = %q", got)
	}
}

func TestSkippedFractionGuards(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	data := randTraj(rng, 8)
	q := randTraj(rng, 3)
	if f := SkippedFraction(sim.DTW{}, nil, data, q); f != 0 {
		t.Errorf("nil policy skipped %v", f)
	}
	if f := SkippedFraction(sim.DTW{}, constPolicy(2, 1, false, true), traj.Trajectory{}, q); f != 0 {
		t.Errorf("empty data skipped %v", f)
	}
	if f := SkippedFraction(sim.DTW{}, constPolicy(2, 1, false, true), data, traj.Trajectory{}); f != 0 {
		t.Errorf("empty query skipped %v", f)
	}
}

// noisyPolicy builds a policy with random (DQN-initialization) weights: its
// actions depend on the state, so walks over different candidates diverge.
func noisyPolicy(seed int64, k int, useSuffix, simplify bool) *rl.Policy {
	dim := rl.StateDim(useSuffix)
	net := nn.NewMLP([]int{dim, 8, 2 + k}, []nn.Activation{nn.ReLU, nn.Sigmoid}, rand.New(rand.NewSource(seed)))
	return &rl.Policy{Net: net, K: k, UseSuffix: useSuffix, SimplifyState: simplify}
}

// TestRLSThresholdScanMatchesUnpruned is the approximate-path counterpart
// of the pruned≡unpruned equivalence matrix: a TopKPrunedCtx ranking must
// be byte-identical to ranking every candidate's direct RLS.Search result —
// for constant and state-dependent policies, network- and table-served, the
// policy-less degenerate algorithm and an empty query. Every policy may
// skip candidates through the lower-bound cascade: its reported distances
// are genuine subtrajectory distances, which the cascade bounds from below
// (TestSimplifiedWalkReportsExactDist pins that for simplified state). A threshold
// seeded before the scan starts — a sibling shard or a router's bound having
// got there first — must leave exactly the matches within it.
func TestRLSThresholdScanMatchesUnpruned(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	ts := make([]traj.Trajectory, 60)
	for i := range ts {
		ts[i] = randTraj(rng, rng.Intn(18)+4)
	}
	db := NewDatabase(ts, false)
	table, err := rl.Compile(noisyPolicy(7, 2, true, true), 8)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	m := sim.DTW{}
	for ai, alg := range []RLS{
		{M: m, Policy: constPolicy(0, 0, true, false)},  // RLS, never split
		{M: m, Policy: constPolicy(1, 0, true, false)},  // RLS, always split
		{M: m, Policy: constPolicy(2, 1, false, true)},  // RLS-Skip, skip 1, simplified state
		{M: m, Policy: constPolicy(3, 2, false, false)}, // skip 2, full state
		{M: m, Policy: noisyPolicy(3, 3, true, true)},   // RLS-Skip, state-dependent
		{M: m, Policy: noisyPolicy(4, 3, false, true)},  // RLS-Skip+
		{M: m, Table: table},                            // compiled table serving
		{M: m},                                          // no policy: every distance infinite
	} {
		if _, ok := Algorithm(alg).(ThresholdSearcher); !ok {
			t.Fatal("RLS does not implement ThresholdSearcher")
		}
		for qi, q := range []traj.Trajectory{randTraj(rng, 5), {}} {
			// a zero TrajMeta is no special case: the suffix pass never reads
			// metadata, it reverses every candidate into scratch
			bare := alg.NewThresholdSearch(q)
			if got, _ := bare.Search(ts[0], TrajMeta{}, math.Inf(1)); got != alg.Search(ts[0], q) {
				t.Fatalf("alg%d q%d: zero-meta search %+v, direct %+v", ai, qi, got, alg.Search(ts[0], q))
			}
			bare.Release()
			for _, k := range []int{1, 5, 20} {
				name := fmt.Sprintf("alg%d %s q%d k=%d", ai, alg.Name(), qi, k)
				var st PruneStats
				got, err := db.TopKPrunedCtx(context.Background(), alg, q, k, nil, nil, &st)
				if err != nil {
					t.Fatal(err)
				}
				// reference: direct per-trajectory invocation, ranked
				h := NewCollector(k)
				for i, dt := range ts {
					h.Offer(Match{TrajIndex: i, Result: alg.Search(dt, q)})
				}
				want := h.Sorted()
				if !slices.Equal(got, want) {
					t.Fatalf("%s:\ngot  %+v\nwant %+v", name, got, want)
				}

				tau := want[len(want)/2].Result.Dist
				seeded := NewCollector(k)
				seeded.Seed(tau)
				if err := db.ScanPrunedSourceCtx(context.Background(), alg, q, nil, seeded, nil, nil, seeded.offer); err != nil {
					t.Fatal(err)
				}
				within := want
				for i, mt := range want {
					if mt.Result.Dist > tau {
						within = want[:i]
						break
					}
				}
				if got := seeded.Sorted(); !slices.Equal(got, within) {
					t.Fatalf("%s seeded at %v:\ngot  %+v\nwant %+v", name, tau, got, within)
				}
			}
		}
	}
}

// TestSimplifiedWalkReportsExactDist pins what a served learned distance
// means: a simplified-state walk tracks distances that ignore skipped
// points, so its winning interval is re-scored, and every match of a
// pruned scan — network- and table-served, DTW and Fréchet — carries the
// measure value of its interval bit for bit. With genuine distances the
// lower-bound cascade is armed, and it skips candidates here.
func TestSimplifiedWalkReportsExactDist(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	ts := make([]traj.Trajectory, 80)
	for i := range ts {
		ts[i] = randTraj(rng, rng.Intn(20)+6)
	}
	db := NewDatabase(ts, false)
	queries := []traj.Trajectory{randTraj(rng, 5), randTraj(rng, 8)}
	var lbSkipped int64
	for _, m := range []sim.Measure{sim.DTW{}, sim.Frechet{}} {
		table, err := rl.Compile(noisyPolicy(5, 2, true, true), 8)
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		for ai, alg := range []RLS{
			{M: m, Policy: constPolicy(2, 1, false, true)}, // skip 1 at every step
			{M: m, Policy: noisyPolicy(3, 3, true, true)},
			{M: m, Policy: noisyPolicy(4, 3, false, true)},
			{M: m, Table: table},
		} {
			for qi, q := range queries {
				for _, k := range []int{1, 3, len(ts)} {
					var st PruneStats
					got, err := db.TopKPrunedCtx(context.Background(), alg, q, k, nil, nil, &st)
					if err != nil {
						t.Fatal(err)
					}
					lbSkipped += st.LBSkipped
					for _, mt := range got {
						want := ExactDist(m, ts[mt.TrajIndex], q, mt.Result)
						if math.Float64bits(mt.Result.Dist) != math.Float64bits(want) {
							t.Fatalf("%s alg%d q%d k=%d trajectory %d %v: dist %v, ExactDist %v",
								m.Name(), ai, qi, k, mt.TrajIndex, mt.Result.Interval, mt.Result.Dist, want)
						}
					}
				}
			}
		}
	}
	if lbSkipped == 0 {
		t.Error("the lower-bound cascade never skipped a candidate of a simplified-state scan")
	}
}

func TestScoreApproxQualityUndefinedRatio(t *testing.T) {
	// when every position's exact answer has distance 0 and the approximate
	// answer missed it, the ratio is undefined but rank/skip still score
	data := traj.FromXY(0, 0, 1, 0, 2, 0)
	q := traj.FromXY(0, 0, 1, 0)
	approx := []RankedAnswer{{ID: 7, T: data, R: Result{Interval: traj.Interval{I: 1, J: 2}, Dist: 1}}}
	exact := []RankedAnswer{{ID: 7, T: data, R: Result{Interval: traj.Interval{I: 0, J: 1}, Dist: 0}}}
	res, ok := ScoreApproxQuality(sim.DTW{}, nil, q, approx, exact)
	if !ok {
		t.Fatal("comparison with non-empty rankings reported not ok")
	}
	if res.RatioPositions != 0 {
		t.Errorf("RatioPositions = %d, want 0", res.RatioPositions)
	}
	if res.MeanRank != 1 {
		t.Errorf("MeanRank = %v, want 1", res.MeanRank)
	}

	// a 0-distance exact answer the approximate search also hit scores 1
	approx[0].R = exact[0].R
	res, ok = ScoreApproxQuality(sim.DTW{}, nil, q, approx, exact)
	if !ok || res.RatioPositions != 1 || res.ApproxRatio != 1 {
		t.Errorf("matched zero-distance position: %+v ok=%v, want ratio 1 over 1 position", res, ok)
	}

	// empty rankings are not scorable
	if _, ok := ScoreApproxQuality(sim.DTW{}, nil, q, nil, exact); ok {
		t.Error("empty approximate ranking scored")
	}
}
