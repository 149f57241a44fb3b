package sim

import (
	"math"
	"math/rand"
	"testing"

	"simsub/internal/traj"
)

func TestStreamMatchesDist(t *testing.T) {
	// For every measure, pushing the points of a subsequence one at a time
	// must reproduce the bits of Dist of the buffered prefix — including
	// after Reset.
	rng := rand.New(rand.NewSource(30))
	for _, m := range allMeasures() {
		t.Run(m.Name(), func(t *testing.T) {
			for trial := 0; trial < 5; trial++ {
				q := randTraj(rng, rng.Intn(6)+1)
				// a non-contiguous point sequence, as RLS-Skip produces
				src := randTraj(rng, 14)
				var picked []int
				for i := 0; i < src.Len(); i++ {
					if rng.Float64() < 0.6 {
						picked = append(picked, i)
					}
				}
				if len(picked) == 0 {
					picked = []int{0}
				}
				s := NewStream(m, q)
				for round := 0; round < 2; round++ {
					var prefix traj.Trajectory
					for _, idx := range picked {
						p := src.Pt(idx)
						got := s.Push(p)
						prefix.Points = append(prefix.Points, p)
						want := m.Dist(prefix, q)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("round %d: stream dist after %d pushes = %v, want %v",
								round, len(prefix.Points), got, want)
						}
						if s.Len() != len(prefix.Points) {
							t.Fatalf("Len = %d, want %d", s.Len(), len(prefix.Points))
						}
					}
					s.Reset()
					if s.Len() != 0 {
						t.Fatal("Reset did not clear Len")
					}
				}
			}
		})
	}
}

func TestNativeStreamsAvailable(t *testing.T) {
	// the measures on the hot path must stream natively, not through the
	// quadratic buffering computer
	for _, m := range []Measure{DTW{}, Frechet{}, ERP{}, EDR{Eps: 0.5}, EDS{}, EDwP{}} {
		s := NewStream(m, traj.FromXY(0, 0))
		if _, ok := s.(*bufferStream); ok {
			t.Errorf("%s's computer is the buffering computer", m.Name())
		}
		Release(s)
	}
}

func TestBufferStreamFallback(t *testing.T) {
	// CDTW's band depends on the final length, so its computer buffers;
	// verify it still agrees with Dist
	m := CDTW{R: 0.25}
	q := traj.FromXY(0, 0, 1, 0, 2, 0)
	s := NewStream(m, q)
	if _, ok := s.(*bufferStream); !ok {
		t.Fatalf("cdtw's computer is %T, want the buffering computer", s)
	}
	pts := traj.FromXY(0, 1, 1, 1, 2, 1)
	var prefix traj.Trajectory
	for i := 0; i < pts.Len(); i++ {
		got := s.Push(pts.Pt(i))
		prefix.Points = append(prefix.Points, pts.Pt(i))
		want := m.Dist(prefix, q)
		if !closeEnough(got, want) {
			t.Fatalf("fallback stream = %v, want %v", got, want)
		}
	}
}
