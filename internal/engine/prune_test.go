package engine

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"simsub/internal/core"
	"simsub/internal/geo"
	"simsub/internal/traj"
)

// Engine-level equivalence: the sharded scan with the shared atomic
// threshold must rank byte-identically to an unpruned flat scan, across
// measures × algorithms × distinct × filter, on a 1000-trajectory store.

func pruneData(n, pts int, seed int64) []traj.Trajectory {
	rng := rand.New(rand.NewSource(seed))
	ts := make([]traj.Trajectory, n)
	for i := range ts {
		p := make([]geo.Point, pts)
		x, y := rng.Float64()*20, rng.Float64()*20
		for j := range p {
			x += rng.NormFloat64() * 0.3
			y += rng.NormFloat64() * 0.3
			p[j] = geo.Point{X: x, Y: y, T: float64(j)}
		}
		ts[i] = traj.New(p...)
	}
	return ts
}

// flatUnprunedTopK builds the reference ranking over the flat store: the
// plain unpruned per-candidate scan, canonically sorted, optionally
// distinct-collapsed the way the engine collapses (best representative per
// matched subtrajectory content).
func flatUnprunedTopK(t *testing.T, data []traj.Trajectory, alg core.Algorithm, q traj.Trajectory, k int, filter *geo.Rect, distinct bool) []Match {
	t.Helper()
	db := core.NewDatabase(data, false)
	var all []core.Match
	if err := db.ScanFilteredCtx(context.Background(), alg, q, filter, func(m core.Match) error {
		all = append(all, m)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sort.Slice(all, func(i, j int) bool {
		return core.RankBefore(all[i].Result.Dist, all[i].TrajIndex, all[i].Result.Interval,
			all[j].Result.Dist, all[j].TrajIndex, all[j].Result.Interval)
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]Match, 0, k)
	for _, m := range all[:k] {
		out = append(out, Match{TrajID: m.TrajIndex, Result: m.Result})
	}
	if !distinct {
		return out
	}
	var kept []Match
	var seen []traj.Trajectory
next:
	for _, m := range out {
		sub := data[m.TrajID].Sub(m.Result.Interval.I, m.Result.Interval.J)
		for _, prev := range seen {
			if prev.Equal(sub) {
				continue next
			}
		}
		seen = append(seen, sub)
		kept = append(kept, m)
	}
	return kept
}

func TestEnginePrunedEquivalence(t *testing.T) {
	data := pruneData(900, 24, 41)
	// duplicate some content so distinct collapsing has work to do
	for i := 0; i < 100; i++ {
		data = append(data, traj.New(data[i].Points...))
	}
	e := New(Config{Shards: 4, Index: ScanAll})
	e.Add(data)
	q := pruneData(1, 9, 42)[0]
	filter := &geo.Rect{MinX: 0, MinY: 0, MaxX: 14, MaxY: 14}

	for _, tc := range []struct{ measure, algorithm string }{
		{"dtw", "exacts"}, {"dtw", "pss"},
		{"frechet", "pos-d"}, {"edr", "sizes"}, {"erp", "pos"},
	} {
		for _, distinct := range []bool{false, true} {
			for _, f := range []*geo.Rect{nil, filter} {
				name := fmt.Sprintf("%s/%s/distinct=%v/filter=%v", tc.measure, tc.algorithm, distinct, f != nil)
				alg, err := ResolveQuery(tc.measure, tc.algorithm, Params{})
				if err != nil {
					t.Fatal(err)
				}
				want := flatUnprunedTopK(t, data, alg, q, 10, f, distinct)
				got, _, err := e.TopK(context.Background(), Query{
					Q: q, K: 10, Measure: tc.measure, Algorithm: tc.algorithm,
					Distinct: distinct, Filter: f,
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s: got %d matches, want %d", name, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("%s rank %d: engine %+v, reference %+v", name, i, got[i], want[i])
					}
				}
			}
		}
	}

	st := e.Stats()
	if st.CandidatesSeen == 0 {
		t.Error("stats: CandidatesSeen = 0 after pruned scans")
	}
	if st.LBSkipped == 0 {
		t.Error("stats: LBSkipped = 0; lower-bound cascade never fired")
	}
	if st.LBSkipped+st.EarlyAbandoned > st.CandidatesSeen {
		t.Errorf("stats inconsistent: %+v", st)
	}
	t.Logf("engine prune stats: seen=%d lb_skipped=%d abandoned=%d",
		st.CandidatesSeen, st.LBSkipped, st.EarlyAbandoned)
}

// TestStreamPrunedEquivalence: the streaming scan shares the collector's
// published threshold; its final ranking must match TopK's.
func TestStreamPrunedEquivalence(t *testing.T) {
	e := New(Config{Shards: 4, Index: ScanAll})
	e.Add(pruneData(1000, 24, 51))
	q := pruneData(1, 9, 52)[0]
	for _, tc := range []struct{ measure, algorithm string }{
		{"dtw", "exacts"}, {"frechet", "pss"},
	} {
		qq := Query{Q: q, K: 10, Measure: tc.measure, Algorithm: tc.algorithm}
		want, _, err := e.TopK(context.Background(), qq)
		if err != nil {
			t.Fatal(err)
		}
		emitted := 0
		got, _, err := e.TopKStream(context.Background(), qq, func(Match) error {
			emitted++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if emitted < len(got) {
			t.Errorf("%s/%s: emitted %d provisional matches for a %d-deep ranking",
				tc.measure, tc.algorithm, emitted, len(got))
		}
		if len(got) != len(want) {
			t.Fatalf("%s/%s: stream %d matches, topk %d", tc.measure, tc.algorithm, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s/%s rank %d: stream %+v, topk %+v", tc.measure, tc.algorithm, i, got[i], want[i])
			}
		}
	}
}

// tieData is core's tie-heavy corpus (prune_equiv_test.go there): lattice
// walks with stationary runs, so trajectories share sub-paths and whole
// groups of them sit at one distance from a query.
func tieData(n, pts int, seed int64) []traj.Trajectory {
	rng := rand.New(rand.NewSource(seed))
	ts := make([]traj.Trajectory, n)
	for i := range ts {
		p := make([]geo.Point, 0, pts)
		x, y := rng.Intn(5), rng.Intn(5)
		for len(p) < pts {
			for r := rng.Intn(3); r >= 0 && len(p) < pts; r-- {
				p = append(p, geo.Point{X: float64(x), Y: float64(y), T: float64(len(p))})
			}
			if rng.Intn(2) == 0 {
				x = (x + 1 + 3*rng.Intn(2)) % 5 // ±1 mod 5
			} else {
				y = (y + 1 + 3*rng.Intn(2)) % 5
			}
		}
		ts[i] = traj.New(p...)
	}
	return ts
}

// TestEngineTieHeavyEquivalence: every shard visits its candidates in its
// own best-first order and races the others on the shared threshold; with
// ties across the k-th rank the merged ranking still has to be the flat
// unpruned ExactS one, whatever the shard count, batch or streamed.
func TestEngineTieHeavyEquivalence(t *testing.T) {
	data := tieData(600, 30, 61)
	queries := append(tieData(2, 7, 62), tieData(1, 6, 63)[0].Translate(0.5, 0.5))
	for _, shards := range []int{1, 3, 4} {
		e := New(Config{Shards: shards, Workers: 4, Index: ScanAll})
		e.Add(data)
		for _, measure := range []string{"frechet", "dtw"} {
			alg, err := ResolveQuery(measure, "exacts", Params{})
			if err != nil {
				t.Fatal(err)
			}
			for qi, q := range queries {
				want := flatUnprunedTopK(t, data, alg, q, 10, nil, false)
				qq := Query{Q: q, K: 10, Measure: measure, Algorithm: "exacts"}
				got, _, err := e.TopK(context.Background(), qq)
				if err != nil {
					t.Fatal(err)
				}
				streamed, _, err := e.TopKStream(context.Background(), qq, func(Match) error { return nil })
				if err != nil {
					t.Fatal(err)
				}
				for how, ms := range map[string][]Match{"topk": got, "stream": streamed} {
					if len(ms) != len(want) {
						t.Fatalf("%d shards %s q%d %s: got %d matches, want %d", shards, measure, qi, how, len(ms), len(want))
					}
					for i := range ms {
						if ms[i] != want[i] {
							t.Errorf("%d shards %s q%d %s rank %d: engine %+v, reference %+v", shards, measure, qi, how, i, ms[i], want[i])
						}
					}
				}
			}
		}
	}
}
