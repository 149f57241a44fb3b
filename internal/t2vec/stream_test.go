package t2vec

import (
	"math"
	"math/rand"
	"testing"

	"simsub/internal/sim"
	"simsub/internal/traj"
)

// The streaming encoder contract: pushing a point sequence one GRU step at
// a time must land on exactly the distances the batch encoder computes for
// the same prefixes — the stream is Φinc over the identical hidden state.

func TestStreamMatchesBatchPrefixes(t *testing.T) {
	m := NewRandomModel(8, 1)
	rng := rand.New(rand.NewSource(30))
	data := randWalk(rng, 14)
	q := randWalk(rng, 7)
	s := sim.NewStream(m, q)
	for j := 0; j < data.Len(); j++ {
		got := s.Push(data.Points[j])
		want := m.Dist(data.Sub(0, j), q)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("stream prefix [0,%d] = %v, batch = %v", j, got, want)
		}
		if s.Len() != j+1 {
			t.Fatalf("Len after %d pushes = %d", j+1, s.Len())
		}
	}
}

func TestStreamResetReplaysIdentically(t *testing.T) {
	m := NewRandomModel(8, 2)
	rng := rand.New(rand.NewSource(31))
	data := randWalk(rng, 10)
	q := randWalk(rng, 5)
	s := sim.NewStream(m, q)
	first := make([]float64, data.Len())
	for j := range data.Points {
		first[j] = s.Push(data.Points[j])
	}
	s.Reset()
	if s.Len() != 0 {
		t.Fatalf("Len after Reset = %d", s.Len())
	}
	for j := range data.Points {
		if got := s.Push(data.Points[j]); got != first[j] {
			t.Fatalf("replay diverged at %d: %v != %v", j, got, first[j])
		}
	}
}

func TestStreamIndependentOfOtherStreams(t *testing.T) {
	// two concurrent streams over the same model must not share hidden
	// state: interleaved pushes still agree with the batch encoder
	m := NewRandomModel(8, 3)
	rng := rand.New(rand.NewSource(32))
	a := randWalk(rng, 9)
	b := randWalk(rng, 9)
	q := randWalk(rng, 6)
	sa, sb := sim.NewStream(m, q), sim.NewStream(m, q)
	for j := 0; j < 9; j++ {
		da := sa.Push(a.Points[j])
		db := sb.Push(b.Points[j])
		if want := m.Dist(a.Sub(0, j), q); math.Abs(da-want) > 1e-12 {
			t.Fatalf("stream a diverged at %d: %v != %v", j, da, want)
		}
		if want := m.Dist(b.Sub(0, j), q); math.Abs(db-want) > 1e-12 {
			t.Fatalf("stream b diverged at %d: %v != %v", j, db, want)
		}
	}
}

func TestStreamTokenModelParity(t *testing.T) {
	// the parity contract must hold for token-pipeline models too, whose
	// per-point feature is a learned cell embedding rather than coordinates
	rng := rand.New(rand.NewSource(33))
	corpus := make([]traj.Trajectory, 8)
	for i := range corpus {
		corpus[i] = randWalk(rng, 12)
	}
	m, _, err := Train(corpus, TrainConfig{Hidden: 6, Epochs: 1, TokenGrid: 6, EmbedDim: 4, Seed: 7})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	data, q := corpus[0], corpus[1]
	s := sim.NewStream(m, q)
	for j := 0; j < data.Len(); j++ {
		got := s.Push(data.Points[j])
		want := m.Dist(data.Sub(0, j), q)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("token stream prefix [0,%d] = %v, batch = %v", j, got, want)
		}
	}
}
