package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"simsub/internal/dataset"
	"simsub/internal/geo"
	"simsub/internal/traj"
)

// freeStartMeasures lists every measure with a free-start pass: EDR at a
// tolerance below and above the test coordinates' spread (ties at the
// minimum are common at ε=3), and ERP with its gap at the origin and off it.
func freeStartMeasures() []FreeStartMeasure {
	return []FreeStartMeasure{DTW{}, Frechet{}, ERP{}, ERP{Gap: geo.Point{X: 4, Y: -2}}, EDR{Eps: 0.25}, EDR{Eps: 3}}
}

// label names a free-start measure in subtests and failures: its name, with
// EDR's ε and a gap point off the origin.
func label(m Measure) string {
	switch m := m.(type) {
	case EDR:
		return fmt.Sprintf("edr(eps=%g)", m.Eps)
	case ERP:
		if m.Gap != (geo.Point{}) {
			return fmt.Sprintf("erp(gap=%g,%g)", m.Gap.X, m.Gap.Y)
		}
	}
	return m.Name()
}

// enumFirst is the reference the free-start pass must reproduce bit for
// bit: the interval and distance the ExactS enumeration keeps, the first one
// strictly smaller than everything before it.
func enumFirst(m Measure, t, q traj.Trajectory) (traj.Interval, float64) {
	var iv traj.Interval
	best := math.Inf(1)
	AllSubDists(m, t, q, func(i, j int, d float64) {
		if d < best {
			iv, best = traj.Interval{I: i, J: j}, d
		}
	})
	return iv, best
}

// enumMin is enumFirst's distance.
func enumMin(m Measure, t, q traj.Trajectory) float64 {
	_, d := enumFirst(m, t, q)
	return d
}

// checkMinSubDist asserts the FreeStartMeasure contract on one pair: the
// unbounded pass returns the enumeration's interval and minimum exactly,
// and for each tau an abandoned pass implies minimum > tau strictly while
// a completed one returns the interval and minimum themselves. Besides
// taus it always tries d*, its two neighbouring floats, 0 and +Inf. A
// measure with Beyond must answer it exactly as MinSub abandons.
func checkMinSubDist(t *testing.T, m FreeStartMeasure, data, q traj.Trajectory, taus []float64) {
	t.Helper()
	wantIv, want := enumFirst(m, data, q)
	gate, _ := m.(interface {
		Beyond(t, q traj.Trajectory, tau float64) bool
	})
	for _, tau := range append(taus, math.Inf(1), want, math.Nextafter(want, 0), math.Nextafter(want, math.Inf(1)), 0) {
		iv, got, abandoned := m.MinSub(data, q, tau)
		switch {
		case gate != nil && gate.Beyond(data, q, tau) != abandoned:
			t.Fatalf("%s n=%d m=%d tau=%v: Beyond is %v, MinSub abandoned=%v", label(m), data.Len(), q.Len(), tau, !abandoned, abandoned)
		case abandoned && !(want > tau):
			t.Fatalf("%s n=%d m=%d tau=%v: abandoned although the minimum %v is within tau", label(m), data.Len(), q.Len(), tau, want)
		case !abandoned && (iv != wantIv || math.Float64bits(got) != math.Float64bits(want)):
			t.Fatalf("%s n=%d m=%d tau=%v: completed with %v at %v, enumeration has %v at %v",
				label(m), data.Len(), q.Len(), tau, iv, got, wantIv, want)
		case !abandoned && want > tau:
			t.Fatalf("%s n=%d m=%d tau=%v: completed although the minimum %v is beyond tau", label(m), data.Len(), q.Len(), tau, want)
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
		// squared distances overflow to +Inf: some cells, then every cell
		{"overflowing distances", traj.New(pt(1e200, 0), pt(-1e200, 0), pt(1e200, 1e200), pt(-1e200, 0)), traj.New(pt(-1e200, 0), pt(1e200, 0))},
		{"every distance +Inf", traj.New(pt(1e200, 0), pt(1e200, 1)), traj.New(pt(-1e200, 0), pt(-1e200, 1))},
	}
	for _, m := range freeStartMeasures() {
		for _, p := range pairs {
			t.Run(label(m)+"/"+p.name, func(t *testing.T) {
				lo := enumMin(m, p.data, p.q)
				checkMinSubDist(t, m, p.data, p.q, []float64{0, lo / 2, lo * 2, 1})
			})
		}
	}
}

// slackPin is the smallest case of the reverse gate's slack: against query
// terms 1, 2⁻⁵³, 2⁻⁵³ a candidate at the origin folds to 1 under DTW, but
// to 1+2⁻⁵² over the reversed pair, so a reverse gate at d* alone keeps no
// start.
func slackPin() traj.Trajectory {
	return traj.New(geo.Point{X: 1}, geo.Point{X: 0x1p-53}, geo.Point{X: 0x1p-53})
}

// TestMinSubReverseSlack pins the slack of the reverse gate on one and on
// three origin points.
func TestMinSubReverseSlack(t *testing.T) {
	q := slackPin()
	for _, n := range []int{1, 3} {
		data := traj.New(make([]geo.Point, n)...)
		one := data.Sub(0, 0)
		if fwd, rev := (DTW{}).Dist(one, q), (DTW{}).Dist(one, q.Reverse()); fwd != 1 || rev != 1+0x1p-52 {
			t.Fatalf("premise: forward fold %v, reversed fold %v, want 1 and 1+2⁻⁵²", fwd, rev)
		}
		for _, m := range freeStartMeasures() {
			t.Run(fmt.Sprintf("%s/n=%d", label(m), n), func(t *testing.T) {
				checkMinSubDist(t, m, data, q, []float64{1, 1 + 0x1p-52})
			})
		}
	}
}

// TestMinSubDistTies: pairs whose starts tie at the minimum, exactly or
// within the reverse gate's slack, so the interval rows must keep the first
// start holding an interval at d* among several the reverse gate lets
// through.
func TestMinSubDistTies(t *testing.T) {
	pt := func(x, y float64) geo.Point { return geo.Point{X: x, Y: y} }
	origin, far := pt(0, 0), pt(100, 100)
	// near folds to a few ulps above 1 either way: start 0 passes the
	// reverse gate, its row dies, and start 2 holds d* = 1
	near := pt(0, 1e-15)
	within := traj.New(near, far, origin)
	if fwd := (DTW{}).Dist(within.Sub(0, 0), slackPin()); !(fwd > 1) {
		t.Fatalf("premise: the near start folds to %v, want above 1", fwd)
	}
	s := (dtwKernel{}).starts(within.Points, slackPin().Points, 1)
	if !s.has(0) {
		t.Fatal("premise: the reverse gate drops the near start")
	}
	putRow(s.rev)
	lattice := func(rng *rand.Rand, n int, scale float64) traj.Trajectory {
		pts := make([]geo.Point, n)
		for i := range pts {
			pts[i] = pt(float64(rng.Intn(4))*scale, float64(rng.Intn(4))*scale)
		}
		return traj.New(pts...)
	}
	stationary := traj.New(origin, origin, origin, origin, origin, origin)

	rng := rand.New(rand.NewSource(59))
	pairs := []struct {
		name    string
		data, q traj.Trajectory
	}{
		{"starts within the slack", within, slackPin()},
		{"starts tied exactly", traj.New(origin, far, origin), slackPin()},
		{"stationary data, slack query", stationary, slackPin()},
		{"stationary data, reversed slack query", stationary, slackPin().Reverse()},
	}
	for _, scale := range []float64{1, 1e6} {
		for trial := 0; trial < 40; trial++ {
			pairs = append(pairs, struct {
				name    string
				data, q traj.Trajectory
			}{fmt.Sprintf("lattice scale %g #%d", scale, trial), lattice(rng, 1+rng.Intn(24), scale), lattice(rng, 1+rng.Intn(8), scale)})
		}
	}
	for _, m := range freeStartMeasures() {
		for _, p := range pairs {
			t.Run(label(m)+"/"+p.name, func(t *testing.T) {
				lo := enumMin(m, p.data, p.q)
				checkMinSubDist(t, m, p.data, p.q, []float64{lo / 2, lo * (1 + 0x1p-50)})
			})
		}
	}
}

func TestMinSubDistEmpty(t *testing.T) {
	q := traj.New(geo.Point{X: 1, Y: 1})
	for _, m := range freeStartMeasures() {
		for _, pair := range [][2]traj.Trajectory{{{}, q}, {q, {}}, {{}, {}}} {
			if iv, d, abandoned := m.MinSub(pair[0], pair[1], 1); iv != (traj.Interval{}) || !math.IsInf(d, 1) || abandoned {
				t.Errorf("%s with an empty side: (%v, %v, %v), want ({0 0}, +Inf, false)", label(m), iv, d, abandoned)
			}
		}
	}
}

// TestFreeStartAllocatesNothing: the gate's column and the interval rows'
// row come from the row pool, so a steady-state pass allocates nothing,
// whether it completes or abandons.
func TestFreeStartAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	rng := rand.New(rand.NewSource(47))
	data, q := randTraj(rng, 80), randTraj(rng, 12)
	for _, m := range freeStartMeasures() {
		_, d, _ := m.MinSub(data, q, math.Inf(1)) // warm the pool
		for _, tau := range []float64{math.Inf(1), d, d / 2} {
			if a := testing.AllocsPerRun(100, func() { m.MinSub(data, q, tau) }); a > 0 {
				t.Errorf("%s tau=%v: MinSub allocates %.1f objects per call, want 0", label(m), tau, a)
			}
		}
	}
}

// TestSqBound: sqBound(tau) is the largest float whose square root is
// within tau, the edge the squared Fréchet pass compares against.
func TestSqBound(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	taus := []float64{0, math.SmallestNonzeroFloat64, 1e-300, 1e-160, 1, 2, 3, 1e150, 1e154, 1e200, math.MaxFloat64}
	for i := 0; i < 20000; i++ {
		taus = append(taus, math.Sqrt(rng.Float64()*100), rng.ExpFloat64()*math.Pow(10, float64(rng.Intn(40)-20)))
	}
	for _, tau := range taus {
		s := sqBound(tau)
		if !(math.Sqrt(s) <= tau) || (s < math.Inf(1) && math.Sqrt(math.Nextafter(s, math.Inf(1))) <= tau) {
			t.Fatalf("sqBound(%v) = %v: sqrt %v, next float's sqrt %v", tau, s, math.Sqrt(s), math.Sqrt(math.Nextafter(s, math.Inf(1))))
		}
	}
	if s := sqBound(math.Inf(1)); !math.IsInf(s, 1) {
		t.Errorf("sqBound(+Inf) = %v, want +Inf", s)
	}
	if s := sqBound(-1); s >= 0 {
		t.Errorf("sqBound(-1) = %v, want below every squared distance", s)
	}
}
