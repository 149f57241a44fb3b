package sim

import (
	"math"
	"math/rand"
	"testing"

	"simsub/internal/dataset"
	"simsub/internal/geo"
	"simsub/internal/traj"
)

// TestSubtrajLBAdmissible pins the SubtrajLB promise in floating point: the
// cascade's value never exceeds the minimum distance the DP itself reports
// over the subtrajectories of the candidate, with tau open (+Inf, every
// stage runs) and with tau at that minimum (a strict prune must keep the
// tie). Stationary pairs make the DTW sums fold m equal terms, where m·gap
// can round above the fold; Porto-like pairs exercise the endpoint stage.
func TestSubtrajLBAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	pt := func(lattice bool) geo.Point {
		if lattice {
			return geo.Point{X: float64(rng.Intn(4)), Y: float64(rng.Intn(4))}
		}
		return geo.Point{X: rng.NormFloat64() * 5, Y: rng.NormFloat64() * 5}
	}
	walk := func(n int, lattice bool) traj.Trajectory {
		pts := make([]geo.Point, n)
		for i := range pts {
			pts[i] = pt(lattice)
		}
		return traj.New(pts...)
	}
	stationary := func(n int) traj.Trajectory {
		p := pt(false)
		pts := make([]geo.Point, n)
		for i := range pts {
			pts[i] = p
		}
		return traj.New(pts...)
	}
	type pair struct{ data, q traj.Trajectory }
	var pairs []pair
	for i := 0; i < 500; i++ {
		pairs = append(pairs,
			pair{walk(1+rng.Intn(10), true), walk(1+rng.Intn(8), true)},
			pair{walk(1+rng.Intn(10), false), walk(1+rng.Intn(8), false)},
			pair{stationary(1 + rng.Intn(10)), stationary(1 + rng.Intn(12))})
	}
	corpus := dataset.Generate(dataset.Config{Kind: dataset.Porto, N: 300, Seed: 52, MinLen: 8, MaxLen: 16})
	for i := 0; i < 1500; i++ {
		data, h := corpus[i%len(corpus)], corpus[(7*i+1)%len(corpus)]
		n := 4 + rng.Intn(h.Len()-3)
		s := rng.Intn(h.Len() - n + 1)
		pairs = append(pairs, pair{data, h.Sub(s, s+n-1)})
	}

	for _, m := range []SubtrajLowerBounder{DTW{}, CDTW{R: 0.25}, Frechet{}, ERP{}, EDR{Eps: 0.5}, LCSS{Eps: 0.5}} {
		t.Run(m.Name(), func(t *testing.T) {
			bad := 0
			for _, p := range pairs {
				want := enumMin(m, p.data, p.q)
				lb := m.NewSubtrajLB(p.q)
				for _, tau := range []float64{math.Inf(1), want} {
					if got := lb.LowerBound(p.data, p.data.MBR(), tau); got > want {
						if bad++; bad <= 3 {
							t.Errorf("n=%d m=%d tau=%v: LowerBound %v exceeds the minimum %v",
								p.data.Len(), p.q.Len(), tau, got, want)
						}
					}
				}
			}
			if bad > 3 {
				t.Errorf("%d inadmissible bounds in total", bad)
			}
		})
	}
}
