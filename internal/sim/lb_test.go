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
// Searches that read suffix values (PSS, RLS with Θsuf) report reversed
// folds, which may sit ulps below the forward minimum, so there the bound
// scaled by 1−SuffixSlack must not exceed any SuffixDists value either.
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

	for _, m := range []SubtrajLowerBounder{DTW{}, CDTW{R: 0.25}, Frechet{}, ERP{}, EDR{Eps: 0.5}} {
		t.Run(m.Name(), func(t *testing.T) {
			bad := 0
			for _, p := range pairs {
				want := enumMin(m, p.data, p.q)
				suf := SuffixDists(m, p.data, p.q)
				lb := m.NewSubtrajLB(p.q)
				for _, tau := range []float64{math.Inf(1), want} {
					got := lb.LowerBound(p.data, p.data.MBR(), tau)
					if got > want {
						if bad++; bad <= 3 {
							t.Errorf("n=%d m=%d tau=%v: LowerBound %v exceeds the minimum %v",
								p.data.Len(), p.q.Len(), tau, got, want)
						}
					}
					floor := got * (1 - SuffixSlack(m, p.data.Len(), p.q.Len()))
					for i, s := range suf {
						if floor > s {
							if bad++; bad <= 3 {
								t.Errorf("n=%d m=%d tau=%v: slackened LowerBound %v exceeds suffix %d's value %v",
									p.data.Len(), p.q.Len(), tau, floor, i, s)
							}
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

// TestSubtrajLBSuffixSlackStationary is the smallest case of the suffix
// slack: a stationary candidate at the origin against query terms
// 2⁻⁵³, 2⁻⁵³, 1. The forward fold keeps both tiny terms (1+2⁻⁵²), the
// reversed fold of the suffix pass rounds each of them away (1), and the
// cascade's query-order fold is the forward one. Unslackened, the bound
// would prune the candidate at τ = 1, where PSS reports exactly 1.
func TestSubtrajLBSuffixSlackStationary(t *testing.T) {
	o := geo.Point{}
	data := traj.New(o, o, o)
	q := traj.New(geo.Point{X: 0x1p-53}, geo.Point{X: 0x1p-53}, geo.Point{X: 1})
	suf := SuffixDists(DTW{}, data, q)
	got := DTW{}.NewSubtrajLB(q).LowerBound(data, data.MBR(), math.Inf(1))
	if want := enumMin(DTW{}, data, q); got != 1+0x1p-52 || want != got || suf[2] != 1 {
		t.Fatalf("bound %v, forward minimum %v, last suffix %v: the case no longer sits in the rounding window", got, want, suf[2])
	}
	if floor := got * (1 - SuffixSlack(DTW{}, data.Len(), q.Len())); floor > suf[2] {
		t.Errorf("slackened bound %v exceeds the suffix value %v", floor, suf[2])
	}
}
