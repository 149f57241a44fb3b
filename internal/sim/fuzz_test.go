package sim

import (
	"math"
	"math/rand"
	"testing"

	"simsub/internal/geo"
	"simsub/internal/traj"
)

// FuzzDTWIncremental cross-checks incremental DTW against the from-scratch
// DP on fuzz-generated trajectory pairs.
func FuzzDTWIncremental(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(3))
	f.Add(int64(99), uint8(17), uint8(1))
	f.Add(int64(-7), uint8(2), uint8(8))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, mRaw uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%20 + 1
		m := int(mRaw)%8 + 1
		mk := func(k int) traj.Trajectory {
			pts := make([]geo.Point, k)
			for i := range pts {
				pts[i] = geo.Point{X: rng.NormFloat64() * 5, Y: rng.NormFloat64() * 5}
			}
			return traj.New(pts...)
		}
		data, q := mk(n), mk(m)
		inc := (DTW{}).NewIncremental(data, q)
		got := inc.Init(0)
		for j := 0; j < n; j++ {
			if j > 0 {
				got = inc.Extend()
			}
			want := (DTW{}).Dist(data.Sub(0, j), q)
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("n=%d m=%d j=%d: incremental %v, scratch %v", n, m, j, got, want)
			}
		}
	})
}

// FuzzSuffixDistsReversal checks the PSS suffix identity on fuzz inputs:
// for DTW, reversed-suffix distances equal forward suffix distances.
func FuzzSuffixDistsReversal(f *testing.F) {
	f.Add(int64(3), uint8(9), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, mRaw uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%15 + 1
		m := int(mRaw)%6 + 1
		mk := func(k int) traj.Trajectory {
			pts := make([]geo.Point, k)
			for i := range pts {
				pts[i] = geo.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}
			}
			return traj.New(pts...)
		}
		data, q := mk(n), mk(m)
		suf := SuffixDists(DTW{}, data, q)
		for i := 0; i < n; i++ {
			want := (DTW{}).Dist(data.Sub(i, n-1), q)
			if math.Abs(suf[i]-want) > 1e-9 {
				t.Fatalf("suffix %d: %v vs %v", i, suf[i], want)
			}
		}
	})
}

// FuzzMinSubDist cross-checks the free-start pass against the enumeration
// it replaces: same bits unbounded, and a sound abandon decision under a
// fuzz-chosen threshold. Coordinates are drawn from a small lattice half
// the time, so repeated points and tied intervals are common.
func FuzzMinSubDist(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(3), 0.5, false)
	f.Add(int64(99), uint8(17), uint8(1), 2.0, true)
	f.Add(int64(-7), uint8(2), uint8(8), 0.0, true)
	f.Add(int64(12), uint8(0), uint8(0), 1.0, false)
	f.Fuzz(func(t *testing.T, seed int64, nRaw, mRaw uint8, tauScale float64, lattice bool) {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%24 + 1
		m := int(mRaw)%10 + 1
		mk := func(k int) traj.Trajectory {
			pts := make([]geo.Point, k)
			for i := range pts {
				if lattice {
					pts[i] = geo.Point{X: float64(rng.Intn(4)), Y: float64(rng.Intn(4))}
				} else {
					pts[i] = geo.Point{X: rng.NormFloat64() * 5, Y: rng.NormFloat64() * 5}
				}
			}
			return traj.New(pts...)
		}
		data, q := mk(n), mk(m)
		for _, meas := range freeStartMeasures() {
			want := enumMin(meas, data, q)
			var taus []float64
			if tau := want * tauScale; !math.IsNaN(tau) {
				taus = append(taus, tau)
			}
			checkMinSubDist(t, meas, data, q, taus)
		}
	})
}
