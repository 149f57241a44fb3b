package sim

import (
	"math"
	"math/rand"
	"testing"

	"simsub/internal/geo"
	"simsub/internal/traj"
)

// FuzzIncremental checks every measure's one computer on fuzz-generated
// pairs: from a fuzzed start, Init then Extend, Reset then Push of the same
// points, and Dist of each subtrajectory give the same bits. A computer
// that abandons at tau must have proven every later end's distance
// strictly above tau, and its d must be a lower bound on each of them, so
// it never abandons a winner; until it abandons, ExtendAbandoning returns
// Extend's bits.
func FuzzIncremental(f *testing.F) {
	for i := range allMeasures() {
		f.Add(uint8(i), int64(i+1), uint8(5+2*i), uint8(3+i), uint8(i), 0.5, i%2 == 0)
	}
	f.Fuzz(func(t *testing.T, which uint8, seed int64, nRaw, mRaw, startRaw uint8, tauScale float64, lattice bool) {
		ms := allMeasures()
		meas := ms[int(which)%len(ms)]
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%20 + 1
		m := int(mRaw)%8 + 1
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
		start := int(startRaw) % n
		inc := meas.NewIncremental(data, q)
		defer Release(inc)
		s := NewStream(meas, q)
		s.Push(data.Pt(n - 1)) // leave state behind for Reset to clear
		s.Reset()
		want := make([]float64, 0, n-start)
		for j := start; j < n; j++ {
			var got float64
			if j == start {
				got = inc.Init(start)
			} else {
				got = inc.Extend()
			}
			pushed := s.Push(data.Pt(j))
			d := meas.Dist(data.Sub(start, j), q)
			if math.Float64bits(got) != math.Float64bits(d) || math.Float64bits(pushed) != math.Float64bits(d) {
				t.Fatalf("%s n=%d m=%d [%d,%d]: Init/Extend %v, Reset/Push %v, Dist %v",
					meas.Name(), n, m, start, j, got, pushed, d)
			}
			want = append(want, d)
		}
		tau := want[len(want)/2] * tauScale
		if math.IsNaN(tau) {
			return
		}
		inc.Init(start)
		for j := start + 1; j < n; j++ {
			d, abandoned := inc.ExtendAbandoning(tau)
			if !abandoned {
				if math.Float64bits(d) != math.Float64bits(want[j-start]) {
					t.Fatalf("%s tau=%v [%d,%d]: ExtendAbandoning %v, Dist %v", meas.Name(), tau, start, j, d, want[j-start])
				}
				continue
			}
			for k := j; k < n; k++ {
				if !(want[k-start] > tau) || d > want[k-start] {
					t.Fatalf("%s tau=%v: abandoned at end %d with %v, but end %d has distance %v",
						meas.Name(), tau, j, d, k, want[k-start])
				}
			}
			break
		}
	})
}

// FuzzSuffixDistsReversal checks the PSS suffix identity on fuzz inputs:
// for DTW, reversed-suffix distances equal forward suffix distances up to
// the reordering of their sums, within SuffixSlack either way.
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
			slack := 1 - SuffixSlack(DTW{}, n, m)
			if want*slack > suf[i] || suf[i]*slack > want {
				t.Fatalf("suffix %d: %v vs %v", i, suf[i], want)
			}
		}
	})
}

// FuzzMinSubDist cross-checks the free-start pass against the enumeration
// it replaces: the same interval and bits unbounded, and a sound abandon
// decision under a fuzz-chosen threshold as well as at d*, its neighbouring
// floats, 0 and +Inf (checkMinSubDist). Coordinates are drawn from a small
// lattice half the time, so repeated points and tied intervals are common,
// and are scaled by 1, 1e-3 or 1e6, so squared distances land on
// sqBound's rounding edge at several magnitudes. Besides the fixed
// freeStartMeasures, EDR runs at a tolerance of 0, ½, 1, 1½ or 3 lattice
// steps of the same scale: from one step up, neighbouring lattice points
// match and EDR's integer costs tie at the minimum. With pin, the data is
// stationary at the origin and the query is one unit term followed by
// 2⁻⁵³ terms (scaled), which fold to different sums forward and reversed
// (TestMinSubReverseSlack).
func FuzzMinSubDist(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(3), 0.5, false, uint8(0), uint8(0), false)
	f.Add(int64(99), uint8(17), uint8(1), 2.0, true, uint8(1), uint8(2), false)
	f.Add(int64(-7), uint8(2), uint8(8), 0.0, true, uint8(2), uint8(4), false)
	f.Add(int64(12), uint8(0), uint8(0), 1.0, false, uint8(1), uint8(1), false)
	f.Add(int64(5), uint8(23), uint8(9), 1.0, false, uint8(2), uint8(3), false)
	f.Add(int64(31), uint8(21), uint8(7), 1.0, true, uint8(0), uint8(2), false)
	// the reverse gate's slack pin: one origin point against 1, 2⁻⁵³, 2⁻⁵³
	f.Add(int64(0), uint8(0), uint8(2), 1.0, false, uint8(0), uint8(0), true)
	f.Fuzz(func(t *testing.T, seed int64, nRaw, mRaw uint8, tauScale float64, lattice bool, scaleRaw, epsRaw uint8, pin bool) {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%24 + 1
		m := int(mRaw)%10 + 1
		scale := [...]float64{1, 1e-3, 1e6}[int(scaleRaw)%3]
		mk := func(k int) traj.Trajectory {
			pts := make([]geo.Point, k)
			for i := range pts {
				if lattice {
					pts[i] = geo.Point{X: float64(rng.Intn(4)) * scale, Y: float64(rng.Intn(4)) * scale}
				} else {
					pts[i] = geo.Point{X: rng.NormFloat64() * 5 * scale, Y: rng.NormFloat64() * 5 * scale}
				}
			}
			return traj.New(pts...)
		}
		data, q := mk(n), mk(m)
		if pin {
			for i := range data.Points {
				data.Points[i] = geo.Point{}
			}
			q.Points[0] = geo.Point{X: scale}
			for j := 1; j < m; j++ {
				q.Points[j] = geo.Point{X: 0x1p-53 * scale}
			}
		}
		eps := [...]float64{0, 0.5, 1, 1.5, 3}[int(epsRaw)%5] * scale
		for _, meas := range append(freeStartMeasures(), EDR{Eps: eps}) {
			want := enumMin(meas, data, q)
			var taus []float64
			if tau := want * tauScale; !math.IsNaN(tau) {
				taus = append(taus, tau)
			}
			checkMinSubDist(t, meas, data, q, taus)
		}
	})
}
