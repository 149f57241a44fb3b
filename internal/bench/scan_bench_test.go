package bench

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"

	"simsub/internal/core"
	"simsub/internal/dataset"
	"simsub/internal/sim"
	"simsub/internal/traj"
)

// Scan hot-path benchmarks: pruned (threshold pipeline) versus unpruned
// top-k scans, k=10, in the shape of simsubbench's exact_scan workload: a
// serial scan over 2500 synthetic Porto trajectories (30–90 points), one
// held-out query of 14–26 points per op, rotated over 64. Besides the usual
// testing.B metrics, every run records ns/op, allocs/op and prune ratios
// into BENCH_scan.json (override the path with BENCH_SCAN_OUT) so CI can
// diff the hot path machine-readably:
//
//	go test ./internal/bench -run '^$' -bench BenchmarkScan -benchtime 1x

type scanBenchResult struct {
	NsPerOp        float64 `json:"ns_per_op"`
	AllocsPerOp    float64 `json:"allocs_per_op"`
	Candidates     int64   `json:"candidates"`
	LBSkipped      int64   `json:"lb_skipped"`
	EarlyAbandoned int64   `json:"early_abandoned"`
	PruneRatio     float64 `json:"prune_ratio"`
}

var (
	scanMu      sync.Mutex
	scanResults = map[string]scanBenchResult{}
)

// unprunedScanTopK is the pre-threshold-pipeline scan: every candidate
// fully searched, heap-selected.
func unprunedScanTopK(db *core.Database, alg core.Algorithm, q traj.Trajectory, k int) []core.Match {
	var all []core.Match
	_ = db.ScanFilteredCtx(context.Background(), alg, q, nil, func(m core.Match) error {
		all = append(all, m)
		return nil
	})
	sort.Slice(all, func(i, j int) bool {
		return core.RankBefore(all[i].Result.Dist, all[i].TrajIndex, all[i].Result.Interval,
			all[j].Result.Dist, all[j].TrajIndex, all[j].Result.Interval)
	})
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

// scanCorpus is the store and the query list every scan row runs over,
// built once per process so a -benchtime 1x run stays fast. Queries are
// clipped from held-out trajectories of the same family, as exact_scan's
// are, so none has a zero-distance copy in the store.
var scanCorpus = sync.OnceValues(func() (*core.Database, []traj.Trajectory) {
	db := core.NewDatabase(dataset.Generate(dataset.Config{Kind: dataset.Porto, N: 2500, Seed: 1001}), false)
	held := dataset.Generate(dataset.Config{Kind: dataset.Porto, N: 64, Seed: 1002, MinLen: 26, MaxLen: 52})
	rng := rand.New(rand.NewSource(1003))
	qs := make([]traj.Trajectory, len(held))
	for i, h := range held {
		n := 14 + rng.Intn(13)
		s := rng.Intn(h.Len() - n + 1)
		qs[i] = h.Sub(s, s+n-1)
	}
	return db, qs
})

func benchScan(b *testing.B, measure, algorithm string, pruned bool) {
	m, err := sim.ByName(measure)
	if err != nil {
		b.Fatal(err)
	}
	alg, ok := core.AlgorithmFor(algorithm, m)
	if !ok {
		b.Fatalf("unknown algorithm %q", algorithm)
	}
	db, qs := scanCorpus()
	const k = 10

	var st core.PruneStats
	var m0, m1 runtime.MemStats
	b.ReportAllocs()
	runtime.GC()
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		if pruned {
			if _, err := db.TopKPrunedCtx(context.Background(), alg, q, k, nil, nil, &st); err != nil {
				b.Fatal(err)
			}
		} else {
			unprunedScanTopK(db, alg, q, k)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)

	res := scanBenchResult{
		NsPerOp:        float64(b.Elapsed().Nanoseconds()) / float64(b.N),
		AllocsPerOp:    float64(m1.Mallocs-m0.Mallocs) / float64(b.N),
		Candidates:     st.Candidates,
		LBSkipped:      st.LBSkipped,
		EarlyAbandoned: st.Abandoned,
	}
	if st.Candidates > 0 {
		res.PruneRatio = float64(st.LBSkipped+st.Abandoned) / float64(st.Candidates)
		b.ReportMetric(res.PruneRatio, "pruned/cand")
	}
	mode := "unpruned"
	if pruned {
		mode = "pruned"
	}
	scanMu.Lock()
	scanResults[fmt.Sprintf("%s/%s/%s", measure, algorithm, mode)] = res
	scanMu.Unlock()
}

func BenchmarkScan(b *testing.B) {
	for _, tc := range []struct{ measure, algorithm string }{
		{"dtw", "exacts"}, {"dtw", "pss"}, {"frechet", "exacts"}, {"edr", "pss"},
		{"erp", "exacts"}, {"edr", "exacts"}, {"frechet", "pss"}, {"dtw", "pos"},
	} {
		for _, mode := range []string{"unpruned", "pruned"} {
			b.Run(fmt.Sprintf("%s/%s/%s", tc.measure, tc.algorithm, mode), func(b *testing.B) {
				benchScan(b, tc.measure, tc.algorithm, mode == "pruned")
			})
		}
	}
}
