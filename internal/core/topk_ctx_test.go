package core

import (
	"context"
	"math/rand"
	"testing"

	"simsub/internal/sim"
	"simsub/internal/traj"
)

func TestTopKParallelKZero(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	db := NewDatabase(smallDB(rng, 10), false)
	q := randTraj(rng, 4)
	if got := db.TopKParallel(ExactS{M: sim.DTW{}}, q, 0, 4); len(got) != 0 {
		t.Fatalf("k=0: got %d matches, want 0", len(got))
	}
	if got := db.TopKParallel(ExactS{M: sim.DTW{}}, q, -3, 4); len(got) != 0 {
		t.Fatalf("k=-3: got %d matches, want 0", len(got))
	}
}

func TestTopKParallelEmptyDatabase(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	db := NewDatabase(nil, false)
	q := randTraj(rng, 4)
	if got := db.TopKParallel(ExactS{M: sim.DTW{}}, q, 5, 8); len(got) != 0 {
		t.Fatalf("empty db: got %d matches, want 0", len(got))
	}
}

func TestTopKParallelMoreWorkersThanCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	ts := smallDB(rng, 3)
	db := NewDatabase(ts, false)
	q := randTraj(rng, 4)
	alg := ExactS{M: sim.DTW{}}
	seq := db.TopK(alg, q, 3)
	par := db.TopKParallel(alg, q, 3, 64)
	if len(par) != len(seq) {
		t.Fatalf("got %d matches, want %d", len(par), len(seq))
	}
	for i := range seq {
		if par[i] != seq[i] {
			t.Errorf("rank %d: parallel %+v != sequential %+v", i, par[i], seq[i])
		}
	}
}

func TestTopKParallelAllEmptyTrajectories(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	ts := []traj.Trajectory{traj.New(), traj.New(), traj.New(), traj.New()}
	db := NewDatabase(ts, false)
	q := randTraj(rng, 4)
	if got := db.TopKParallel(ExactS{M: sim.DTW{}}, q, 5, 2); len(got) != 0 {
		t.Fatalf("all-empty db: got %d matches, want 0", len(got))
	}
	// mixed: empty trajectories are skipped, the rest still ranked
	ts = append(ts, randTraj(rng, 8), randTraj(rng, 8))
	db = NewDatabase(ts, false)
	got := db.TopKParallel(ExactS{M: sim.DTW{}}, q, 5, 3)
	if len(got) != 2 {
		t.Fatalf("mixed db: got %d matches, want 2", len(got))
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
	if _, err := db.TopKParallelCtx(ctx, ExactS{M: sim.DTW{}}, q, 5, 4); err != context.Canceled {
		t.Fatalf("TopKParallelCtx err = %v, want context.Canceled", err)
	}
}

func TestTopKDeterministicTieBreak(t *testing.T) {
	// identical trajectories produce identical distances; the ranking must
	// fall back to trajectory index so serial and parallel agree
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
		par := db.TopKParallel(alg, q, 4, 4)
		for i := range seq {
			if par[i] != seq[i] {
				t.Fatalf("trial %d rank %d: parallel %+v != sequential %+v", trial, i, par[i], seq[i])
			}
		}
	}
}
