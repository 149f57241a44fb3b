package sim

import (
	"math"
	"math/rand"
	"testing"

	"simsub/internal/dataset"
	"simsub/internal/geo"
	"simsub/internal/traj"
)

func freeStartMeasures() []FreeStartMeasure { return []FreeStartMeasure{DTW{}, Frechet{}} }

// enumMin is the reference the free-start pass must reproduce bit for bit:
// the minimum the ExactS enumeration sees.
func enumMin(m Measure, t, q traj.Trajectory) float64 {
	best := math.Inf(1)
	AllSubDists(m, t, q, func(_, _ int, d float64) {
		if d < best {
			best = d
		}
	})
	return best
}

// checkMinSubDist asserts the FreeStartMeasure contract on one pair: the
// unbounded pass returns the enumeration's minimum exactly, and for each
// tau an abandoned pass implies minimum > tau strictly while a completed
// one returns the minimum itself.
func checkMinSubDist(t *testing.T, m FreeStartMeasure, data, q traj.Trajectory, taus []float64) {
	t.Helper()
	want := enumMin(m, data, q)
	got, abandoned := m.MinSubDist(data, q, math.Inf(1))
	if abandoned || math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s n=%d m=%d: MinSubDist(+Inf) = (%v, %v), enumeration minimum %v",
			m.Name(), data.Len(), q.Len(), got, abandoned, want)
	}
	for _, tau := range append(taus, want, math.Nextafter(want, 0), math.Nextafter(want, math.Inf(1))) {
		got, abandoned := m.MinSubDist(data, q, tau)
		switch {
		case abandoned && !(want > tau):
			t.Fatalf("%s tau=%v: abandoned although the minimum %v is within tau", m.Name(), tau, want)
		case abandoned && got > want:
			t.Fatalf("%s tau=%v: abandoned with %v, not a lower bound of the minimum %v", m.Name(), tau, got, want)
		case !abandoned && math.Float64bits(got) != math.Float64bits(want):
			t.Fatalf("%s tau=%v: completed with %v, minimum is %v", m.Name(), tau, got, want)
		}
	}
}

func TestMinSubDistMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, m := range freeStartMeasures() {
		for trial := 0; trial < 200; trial++ {
			data := randTraj(rng, 1+rng.Intn(40))
			q := randTraj(rng, 1+rng.Intn(12))
			lo := enumMin(m, data, q)
			taus := []float64{0, lo * rng.Float64(), lo * (1 + rng.Float64()), rng.Float64() * 50}
			checkMinSubDist(t, m, data, q, taus)
		}
	}
}

func TestMinSubDistPortoLike(t *testing.T) {
	corpus := dataset.Generate(dataset.Config{Kind: dataset.Porto, N: 40, Seed: 7})
	held := dataset.Generate(dataset.Config{Kind: dataset.Porto, N: 4, Seed: 8, MinLen: 26, MaxLen: 52})
	rng := rand.New(rand.NewSource(9))
	for _, m := range freeStartMeasures() {
		for _, h := range held {
			n := 14 + rng.Intn(13)
			s := rng.Intn(h.Len() - n + 1)
			q := h.Sub(s, s+n-1)
			for _, data := range corpus {
				lo := enumMin(m, data, q)
				checkMinSubDist(t, m, data, q, []float64{lo * rng.Float64(), lo * (1 + rng.Float64())})
			}
		}
	}
}

func TestMinSubDistDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	pt := func(x, y float64) geo.Point { return geo.Point{X: x, Y: y} }
	stationary := func(n int, p geo.Point) traj.Trajectory {
		pts := make([]geo.Point, n)
		for i := range pts {
			pts[i] = p
		}
		return traj.New(pts...)
	}
	collinear := func(n int, step float64) traj.Trajectory {
		pts := make([]geo.Point, n)
		for i := range pts {
			pts[i] = pt(float64(i)*step, 2*float64(i)*step+1)
		}
		return traj.New(pts...)
	}
	// a walk with stationary runs and a revisited stretch: many intervals
	// tie at the minimum
	runs := func() traj.Trajectory {
		var pts []geo.Point
		for _, p := range []geo.Point{pt(0, 0), pt(1, 0), pt(1, 1), pt(2, 1), pt(1, 1), pt(1, 0), pt(1, 1), pt(2, 1)} {
			for r := 0; r < 3; r++ {
				pts = append(pts, p)
			}
		}
		return traj.New(pts...)
	}()
	// magnitudes far apart: absorption in the DTW sums, huge maxima
	mixed := traj.New(pt(1e-9, 2e-9), pt(1e9, -3e9), pt(3e-7, 1), pt(1e9, -3e9), pt(0.5, 0.25), pt(-4e12, 1e-3), pt(0.5, 0.25))

	pairs := []struct {
		name    string
		data, q traj.Trajectory
	}{
		{"n<m", randTraj(rng, 3), randTraj(rng, 9)},
		{"m=1", randTraj(rng, 17), randTraj(rng, 1)},
		{"n=1", randTraj(rng, 1), randTraj(rng, 6)},
		{"n=1,m=1", randTraj(rng, 1), randTraj(rng, 1)},
		{"stationary data", stationary(12, pt(3, 4)), randTraj(rng, 5)},
		{"stationary query", randTraj(rng, 14), stationary(6, pt(5, 5))},
		{"both stationary", stationary(7, pt(1, 1)), stationary(4, pt(1, 1))},
		{"repeated runs", runs, traj.New(pt(1, 0), pt(1, 1), pt(2, 1))},
		{"repeated runs, repeated query", runs, traj.New(pt(1, 1), pt(1, 1), pt(2, 1), pt(2, 1))},
		{"collinear", collinear(20, 0.5), collinear(6, 0.75)},
		{"collinear, same line same points", collinear(20, 0.5), collinear(5, 0.5)},
		{"mixed magnitudes", mixed, traj.New(pt(0.5, 0.25), pt(1e9, -3e9), pt(2e-9, 1e-9))},
		{"mixed data, small query", mixed, randTraj(rng, 4)},
	}
	for _, m := range freeStartMeasures() {
		for _, p := range pairs {
			t.Run(m.Name()+"/"+p.name, func(t *testing.T) {
				lo := enumMin(m, p.data, p.q)
				checkMinSubDist(t, m, p.data, p.q, []float64{0, lo / 2, lo * 2, 1})
			})
		}
	}
}

func TestMinSubDistEmpty(t *testing.T) {
	q := traj.New(geo.Point{X: 1, Y: 1})
	for _, m := range freeStartMeasures() {
		for _, pair := range [][2]traj.Trajectory{{{}, q}, {q, {}}, {{}, {}}} {
			if d, abandoned := m.MinSubDist(pair[0], pair[1], 1); !math.IsInf(d, 1) || abandoned {
				t.Errorf("%s with an empty side: (%v, %v), want (+Inf, false)", m.Name(), d, abandoned)
			}
		}
	}
}

// TestMinSubDistPooledColumn: the column comes from the row pool, so a
// steady-state pass allocates nothing.
func TestMinSubDistPooledColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	data, q := randTraj(rng, 80), randTraj(rng, 12)
	for _, m := range freeStartMeasures() {
		m.MinSubDist(data, q, math.Inf(1)) // warm the pool
		if a := testing.AllocsPerRun(100, func() { m.MinSubDist(data, q, math.Inf(1)) }); a > 0 {
			t.Errorf("%s: MinSubDist allocates %.1f objects per call, want 0", m.Name(), a)
		}
	}
}
