package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"testing"

	"simsub/internal/geo"
	"simsub/internal/sim"
	"simsub/internal/traj"
)

// Equivalence tests for the scan's candidate list: an explicit list goes
// through the same region filter as the built-in enumeration, and a subset
// list's ranking is exactly the direct scoring of its members — the exact
// cascade reranks whatever it is given, no more and no less.

// TestCandidateListEquivalence hands the scan the spatial enumeration as an
// explicit list, unfiltered and already filtered, with and without a
// region filter: every ranking must be byte-identical to the nil list's.
func TestCandidateListEquivalence(t *testing.T) {
	const k = 10
	data := equivData(300, 20, 41)
	db := NewDatabase(data, true)
	queries := equivData(2, 8, 42)
	filter := &geo.Rect{MinX: 0, MinY: 0, MaxX: 14, MaxY: 14}

	measures := []sim.Measure{sim.DTW{}, sim.Frechet{}, sim.EDR{Eps: 0.4}}
	algs := func(m sim.Measure) []Algorithm {
		return []Algorithm{ExactS{M: m}, PSS{M: m}, POS{M: m}}
	}
	for _, m := range measures {
		for _, alg := range algs(m) {
			for _, f := range []*geo.Rect{nil, filter} {
				name := fmt.Sprintf("%s/%s/filter=%v", m.Name(), alg.Name(), f != nil)
				for qi, q := range queries {
					want, err := db.TopKPrunedCtx(context.Background(), alg, q, k, f, nil, nil)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					for _, list := range [][]int{db.Candidates(q, nil), db.Candidates(q, f)} {
						got, err := db.TopKPrunedCtx(context.Background(), alg, q, k, f, list, nil)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if !slices.Equal(got, want) {
							t.Errorf("%s q%d: explicit list %+v, nil list %+v", name, qi, got, want)
						}
					}
				}
			}
		}
	}
}

// TestEmptyCandidateListScansNothing pins the one difference between nil
// and empty: nil is the spatial enumeration, an empty list (an approximate
// prefilter that proposed nothing) scans nothing.
func TestEmptyCandidateListScansNothing(t *testing.T) {
	data := equivData(50, 10, 71)
	db := NewDatabase(data, false)
	q := equivData(1, 5, 72)[0]
	for _, alg := range []Algorithm{ExactS{M: sim.DTW{}}, Spring{}} {
		var st PruneStats
		got, err := db.TopKPrunedCtx(context.Background(), alg, q, 3, nil, []int{}, &st)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 0 || st != (PruneStats{}) {
			t.Fatalf("%s: empty list answered %+v with stats %+v", alg.Name(), got, st)
		}
		if got, _ := db.TopKPrunedCtx(context.Background(), alg, q, 3, nil, nil, nil); len(got) != 3 {
			t.Fatalf("%s: nil list answered %d matches, want 3", alg.Name(), len(got))
		}
	}
}

// subsetRank is the reference for an approximate list: score exactly the
// given candidates with the plain per-candidate search and rank them.
func subsetRank(alg Algorithm, data []traj.Trajectory, cands []int, q traj.Trajectory, k int) []Match {
	var all []Match
	for _, ci := range cands {
		r := alg.Search(data[ci], q)
		all = append(all, Match{TrajIndex: ci, Result: r})
	}
	sort.Slice(all, func(i, j int) bool { return matchLess(all[i], all[j]) })
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

func TestSubsetSourceRanksExactlyItsCandidates(t *testing.T) {
	const k = 5
	data := equivData(200, 18, 51)
	db := NewDatabase(data, false)
	q := equivData(1, 8, 52)[0]

	// every third trajectory: a fixed coarse subset standing in for an ANN
	// prefilter's output
	var subset []int
	for i := 0; i < len(data); i += 3 {
		subset = append(subset, i)
	}

	for _, m := range []sim.Measure{sim.DTW{}, sim.Frechet{}} {
		for _, alg := range []Algorithm{ExactS{M: m}, PSS{M: m}} {
			want := subsetRank(alg, data, subset, q, k)
			var st PruneStats
			got, err := db.TopKPrunedCtx(context.Background(), alg, q, k, nil, subset, &st)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s/%s: got %d matches, want %d", m.Name(), alg.Name(), len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("%s/%s rank %d: list scan %+v, direct scoring %+v", m.Name(), alg.Name(), i, got[i], want[i])
				}
			}
			if st.Candidates != int64(len(subset)) {
				t.Errorf("%s/%s: scanned %d candidates, the list holds %d", m.Name(), alg.Name(), st.Candidates, len(subset))
			}
		}
	}
}

func TestSourceThreadedThroughBatchAndStream(t *testing.T) {
	const k = 5
	data := equivData(150, 18, 61)
	db := NewDatabase(data, false)
	q := equivData(1, 8, 62)[0]
	var subset []int
	for i := 0; i < len(data); i += 4 {
		subset = append(subset, i)
	}
	alg := ExactS{M: sim.DTW{}}
	want := subsetRank(alg, data, subset, q, k)

	got, err := db.TopKPrunedCtx(context.Background(), alg, q, k, nil, subset, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("top-k: got %d matches, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("top-k rank %d: %+v, want %+v", i, got[i], want[i])
		}
	}

	// the streaming scan sees exactly the subset too: collect and re-rank
	var streamed []Match
	err = db.ScanPrunedSourceCtx(context.Background(), alg, q, nil, nil, nil, subset, func(m Match) error {
		streamed = append(streamed, m)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, m := range streamed {
		seen[m.TrajIndex] = true
	}
	for id := range seen {
		if id%4 != 0 {
			t.Errorf("stream scanned trajectory %d outside the list", id)
		}
	}
}
