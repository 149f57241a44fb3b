package core

import (
	"context"
	"math/rand"
	"testing"

	"simsub/internal/sim"
	"simsub/internal/traj"
)

func TestTopKKZero(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	q := randTraj(rng, 4)
	for _, withIndex := range []bool{false, true} {
		db := NewDatabase(smallDB(rng, 10), withIndex)
		for _, k := range []int{0, -3} {
			if got := db.TopK(ExactS{M: sim.DTW{}}, q, k); len(got) != 0 {
				t.Fatalf("index=%v k=%d: got %d matches, want 0", withIndex, k, len(got))
			}
		}
	}
}

func TestTopKEmptyDatabase(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	q := randTraj(rng, 4)
	for _, withIndex := range []bool{false, true} {
		if got := NewDatabase(nil, withIndex).TopK(ExactS{M: sim.DTW{}}, q, 5); len(got) != 0 {
			t.Fatalf("index=%v empty db: got %d matches, want 0", withIndex, len(got))
		}
	}
}

func TestTopKAllEmptyTrajectories(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	ts := []traj.Trajectory{traj.New(), traj.New(), traj.New(), traj.New()}
	db := NewDatabase(ts, false)
	q := randTraj(rng, 4)
	if got := db.TopK(ExactS{M: sim.DTW{}}, q, 5); len(got) != 0 {
		t.Fatalf("all-empty db: got %d matches, want 0", len(got))
	}
	// mixed: empty trajectories are skipped, the rest still ranked, on the
	// serial scan and on workers sharing one threshold alike
	ts = append(ts, randTraj(rng, 8), randTraj(rng, 8))
	db = NewDatabase(ts, false)
	if got := db.TopK(ExactS{M: sim.DTW{}}, q, 5); len(got) != 2 {
		t.Fatalf("mixed db: got %d matches, want 2", len(got))
	}
	if got, err := sharedTopK(db, ExactS{M: sim.DTW{}}, q, 5, 3); err != nil || len(got) != 2 {
		t.Fatalf("mixed db, 3 workers: got %d matches (err %v), want 2", len(got), err)
	}
}

func TestTopKCtxCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	db := NewDatabase(smallDB(rng, 20), false)
	q := randTraj(rng, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.TopKPrunedCtx(ctx, ExactS{M: sim.DTW{}}, q, 5, nil, nil, nil); err != context.Canceled {
		t.Fatalf("TopKPrunedCtx err = %v, want context.Canceled", err)
	}
}

func TestTopKDeterministicTieBreak(t *testing.T) {
	// identical trajectories produce identical distances; the ranking must
	// fall back to trajectory index so serial and shared-threshold scans agree
	rng := rand.New(rand.NewSource(55))
	base := randTraj(rng, 10)
	ts := make([]traj.Trajectory, 8)
	for i := range ts {
		ts[i] = base.Clone()
		ts[i].ID = i
	}
	db := NewDatabase(ts, false)
	q := randTraj(rng, 4)
	alg := PSS{M: sim.DTW{}}
	seq := db.TopK(alg, q, 4)
	for trial := 0; trial < 5; trial++ {
		par, err := sharedTopK(db, alg, q, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i := range seq {
			if par[i] != seq[i] {
				t.Fatalf("trial %d rank %d: parallel %+v != sequential %+v", trial, i, par[i], seq[i])
			}
		}
	}
}
