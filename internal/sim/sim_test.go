package sim

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"simsub/internal/geo"
	"simsub/internal/traj"
)

// refDTW is an independent reference implementation of DTW using full-matrix
// recursion with memoization, used to validate the rolling-row DP.
func refDTW(t, q traj.Trajectory) float64 {
	n, m := t.Len(), q.Len()
	memo := make(map[[2]int]float64)
	var rec func(i, j int) float64
	rec = func(i, j int) float64 {
		if v, ok := memo[[2]int{i, j}]; ok {
			return v
		}
		d := geo.Dist(t.Pt(i), q.Pt(j))
		var v float64
		switch {
		case i == 0 && j == 0:
			v = d
		case i == 0:
			v = d + rec(0, j-1)
		case j == 0:
			v = d + rec(i-1, 0)
		default:
			v = d + math.Min(rec(i-1, j-1), math.Min(rec(i-1, j), rec(i, j-1)))
		}
		memo[[2]int{i, j}] = v
		return v
	}
	return rec(n-1, m-1)
}

// refFrechet is a reference discrete Fréchet implementation.
func refFrechet(t, q traj.Trajectory) float64 {
	n, m := t.Len(), q.Len()
	memo := make(map[[2]int]float64)
	var rec func(i, j int) float64
	rec = func(i, j int) float64 {
		if v, ok := memo[[2]int{i, j}]; ok {
			return v
		}
		d := geo.Dist(t.Pt(i), q.Pt(j))
		var v float64
		switch {
		case i == 0 && j == 0:
			v = d
		case i == 0:
			v = math.Max(d, rec(0, j-1))
		case j == 0:
			v = math.Max(d, rec(i-1, 0))
		default:
			v = math.Max(d, math.Min(rec(i-1, j-1), math.Min(rec(i-1, j), rec(i, j-1))))
		}
		memo[[2]int{i, j}] = v
		return v
	}
	return rec(n-1, m-1)
}

func randTraj(rng *rand.Rand, n int) traj.Trajectory {
	pts := make([]geo.Point, n)
	x, y := rng.Float64()*10, rng.Float64()*10
	for i := range pts {
		x += rng.NormFloat64()
		y += rng.NormFloat64()
		pts[i] = geo.Point{X: x, Y: y, T: float64(i)}
	}
	return traj.New(pts...)
}

func allMeasures() []Measure {
	return []Measure{DTW{}, Frechet{}, ERP{}, EDR{Eps: 0.5}, EDS{}, EDwP{}, CDTW{R: 0.5}}
}

// closeEnough treats a pair of +Inf values (unreachable band-constrained
// alignments) as equal.
func closeEnough(a, b float64) bool {
	if math.IsInf(a, 1) && math.IsInf(b, 1) {
		return true
	}
	return math.Abs(a-b) <= 1e-9
}

func TestDTWKnownValues(t *testing.T) {
	// T = (0,0),(1,0); Q = (0,0): D = d(p1,q1)+d(p2,q1) = 0+1 = 1
	a := traj.FromXY(0, 0, 1, 0)
	b := traj.FromXY(0, 0)
	if got := (DTW{}).Dist(a, b); math.Abs(got-1) > 1e-12 {
		t.Errorf("DTW = %v, want 1", got)
	}
	// identical trajectories
	c := traj.FromXY(0, 0, 1, 1, 2, 0)
	if got := (DTW{}).Dist(c, c); got != 0 {
		t.Errorf("DTW self distance = %v, want 0", got)
	}
	// simple alignment: T=(0,0),(2,0) Q=(0,0),(1,0),(2,0):
	// p1-q1 (0) + min path ... aligned: p1:q1=0, p2:q2=1, p2:q3=0 => 1
	d1 := traj.FromXY(0, 0, 2, 0)
	d2 := traj.FromXY(0, 0, 1, 0, 2, 0)
	if got := (DTW{}).Dist(d1, d2); math.Abs(got-1) > 1e-12 {
		t.Errorf("DTW = %v, want 1", got)
	}
}

func TestDTWAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		a := randTraj(rng, rng.Intn(12)+1)
		b := randTraj(rng, rng.Intn(12)+1)
		got := (DTW{}).Dist(a, b)
		want := refDTW(a, b)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: DTW = %v, reference = %v", trial, got, want)
		}
	}
}

func TestFrechetAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		a := randTraj(rng, rng.Intn(12)+1)
		b := randTraj(rng, rng.Intn(12)+1)
		got := (Frechet{}).Dist(a, b)
		want := refFrechet(a, b)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: Frechet = %v, reference = %v", trial, got, want)
		}
	}
}

func TestFrechetKnownValues(t *testing.T) {
	// parallel lines at distance 2
	a := traj.FromXY(0, 0, 1, 0, 2, 0)
	b := traj.FromXY(0, 2, 1, 2, 2, 2)
	if got := (Frechet{}).Dist(a, b); math.Abs(got-2) > 1e-12 {
		t.Errorf("Frechet = %v, want 2", got)
	}
	if got := (Frechet{}).Dist(a, a); got != 0 {
		t.Errorf("Frechet self = %v, want 0", got)
	}
}

func TestIdentityDistanceZero(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tr := randTraj(rng, 10)
	for _, m := range allMeasures() {
		if got := m.Dist(tr, tr); math.Abs(got) > 1e-9 {
			t.Errorf("%s: self distance = %v, want 0", m.Name(), got)
		}
	}
}

func TestSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 20; trial++ {
		a := randTraj(rng, rng.Intn(10)+2)
		b := randTraj(rng, rng.Intn(10)+2)
		for _, m := range []Measure{DTW{}, Frechet{}, ERP{}, EDR{Eps: 0.5}, EDS{}, EDwP{}} {
			d1, d2 := m.Dist(a, b), m.Dist(b, a)
			if math.Abs(d1-d2) > 1e-9 {
				t.Errorf("%s not symmetric: %v vs %v", m.Name(), d1, d2)
			}
		}
	}
}

func TestReversalInvariance(t *testing.T) {
	// Paper §4.3: Θ(T^R, Tq^R) equals Θ(T, Tq) for DTW and Fréchet.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		a := randTraj(rng, rng.Intn(10)+1)
		b := randTraj(rng, rng.Intn(10)+1)
		for _, m := range []Measure{DTW{}, Frechet{}} {
			d1 := m.Dist(a, b)
			d2 := m.Dist(a.Reverse(), b.Reverse())
			if math.Abs(d1-d2) > 1e-9 {
				t.Errorf("%s: reversal changed distance %v -> %v", m.Name(), d1, d2)
			}
		}
	}
}

func TestIncrementalMatchesScratch(t *testing.T) {
	// The Incremental contract: Init(i) == Dist(T[i,i],Q), and after k
	// Extends the value equals Dist(T[i,i+k],Q). This validates Φini/Φinc
	// implementations for every measure.
	rng := rand.New(rand.NewSource(12))
	for _, m := range allMeasures() {
		t.Run(m.Name(), func(t *testing.T) {
			for trial := 0; trial < 10; trial++ {
				data := randTraj(rng, rng.Intn(10)+3)
				q := randTraj(rng, rng.Intn(8)+1)
				n := data.Len()
				for i := 0; i < n; i++ {
					inc := m.NewIncremental(data, q)
					got := inc.Init(i)
					want := m.Dist(data.Sub(i, i), q)
					if !closeEnough(got, want) {
						t.Fatalf("%s Init(%d) = %v, want %v", m.Name(), i, got, want)
					}
					for j := i + 1; j < n; j++ {
						got = inc.Extend()
						want = m.Dist(data.Sub(i, j), q)
						if !closeEnough(got, want) {
							t.Fatalf("%s [%d,%d] incremental = %v, scratch = %v", m.Name(), i, j, got, want)
						}
						if inc.End() != j {
							t.Fatalf("%s End() = %d, want %d", m.Name(), inc.End(), j)
						}
					}
				}
			}
		})
	}
}

func TestSuffixDists(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	data := randTraj(rng, 9)
	q := randTraj(rng, 4)
	for _, m := range allMeasures() {
		got := SuffixDists(m, data, q)
		n := data.Len()
		if len(got) != n {
			t.Fatalf("%s: SuffixDists length %d, want %d", m.Name(), len(got), n)
		}
		for i := 0; i < n; i++ {
			want := m.Dist(data.Sub(i, n-1).Reverse(), q.Reverse())
			if !closeEnough(got[i], want) {
				t.Errorf("%s: SuffixDists[%d] = %v, want %v", m.Name(), i, got[i], want)
			}
		}
	}
}

func TestSuffixDistsEqualForwardForDTWFrechet(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	data := randTraj(rng, 8)
	q := randTraj(rng, 5)
	for _, m := range []Measure{DTW{}, Frechet{}} {
		got := SuffixDists(m, data, q)
		for i := 0; i < data.Len(); i++ {
			want := m.Dist(data.Sub(i, data.Len()-1), q)
			if math.Abs(got[i]-want) > 1e-9 {
				t.Errorf("%s: reversed suffix dist %v != forward %v at i=%d", m.Name(), got[i], want, i)
			}
		}
	}
}

func TestPrefixDists(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	data := randTraj(rng, 8)
	q := randTraj(rng, 5)
	m := DTW{}
	got := PrefixDists(m, data, q)
	for j := 0; j < data.Len(); j++ {
		want := m.Dist(data.Sub(0, j), q)
		if math.Abs(got[j]-want) > 1e-9 {
			t.Errorf("PrefixDists[%d] = %v, want %v", j, got[j], want)
		}
	}
}

func TestAllSubDists(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	data := randTraj(rng, 7)
	q := randTraj(rng, 4)
	m := Frechet{}
	seen := map[[2]int]float64{}
	AllSubDists(m, data, q, func(i, j int, d float64) {
		seen[[2]int{i, j}] = d
	})
	n := data.Len()
	if len(seen) != n*(n+1)/2 {
		t.Fatalf("AllSubDists visited %d pairs, want %d", len(seen), n*(n+1)/2)
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			want := m.Dist(data.Sub(i, j), q)
			if math.Abs(seen[[2]int{i, j}]-want) > 1e-9 {
				t.Errorf("AllSubDists[%d,%d] = %v, want %v", i, j, seen[[2]int{i, j}], want)
			}
		}
	}
}

func TestSimConversion(t *testing.T) {
	if Sim(0) != 1 {
		t.Errorf("Sim(0) = %v, want 1", Sim(0))
	}
	if s := Sim(math.Inf(1)); s != 0 {
		t.Errorf("Sim(inf) = %v, want 0", s)
	}
	f := func(d float64) bool {
		d = math.Abs(d)
		if math.IsInf(d, 0) || math.IsNaN(d) {
			return true
		}
		s := Sim(d)
		if s <= 0 || s > 1 {
			return false
		}
		back := DistFromSim(s)
		return math.Abs(back-d) < 1e-6*(1+d)*(1+d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSimMonotone(t *testing.T) {
	prev := Sim(0)
	for d := 0.1; d < 100; d += 0.7 {
		cur := Sim(d)
		if cur >= prev {
			t.Fatalf("Sim not strictly decreasing at d=%v", d)
		}
		prev = cur
	}
}

func TestERPTriangleInequality(t *testing.T) {
	// ERP is a metric; check the triangle inequality on random triples.
	rng := rand.New(rand.NewSource(17))
	m := ERP{}
	for trial := 0; trial < 30; trial++ {
		a := randTraj(rng, rng.Intn(6)+1)
		b := randTraj(rng, rng.Intn(6)+1)
		c := randTraj(rng, rng.Intn(6)+1)
		ab, bc, ac := m.Dist(a, b), m.Dist(b, c), m.Dist(a, c)
		if ac > ab+bc+1e-9 {
			t.Errorf("ERP triangle violated: d(a,c)=%v > %v", ac, ab+bc)
		}
	}
}

func TestEDRCountsEdits(t *testing.T) {
	m := EDR{Eps: 0.1}
	a := traj.FromXY(0, 0, 1, 0, 2, 0)
	b := traj.FromXY(0, 0, 1, 0, 2, 0)
	if d := m.Dist(a, b); d != 0 {
		t.Errorf("EDR identical = %v, want 0", d)
	}
	// one point moved far: one substitution
	c := traj.FromXY(0, 0, 9, 9, 2, 0)
	if d := m.Dist(a, c); d != 1 {
		t.Errorf("EDR one substitution = %v, want 1", d)
	}
	// one extra point: one insertion
	e := traj.FromXY(0, 0, 1, 0, 2, 0, 3, 0)
	if d := m.Dist(a, e); d != 1 {
		t.Errorf("EDR one insertion = %v, want 1", d)
	}
}

func TestCDTWReducesToUnconstrained(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 20; trial++ {
		a := randTraj(rng, rng.Intn(10)+1)
		b := randTraj(rng, rng.Intn(10)+1)
		full := (DTW{}).Dist(a, b)
		band := (CDTW{R: 1}).Dist(a, b)
		if math.Abs(full-band) > 1e-9 {
			t.Errorf("CDTW(R=1) = %v, DTW = %v", band, full)
		}
	}
}

func TestCDTWLowerBoundedByDTW(t *testing.T) {
	// Constraining the warping path can only increase the distance.
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 20; trial++ {
		a := randTraj(rng, rng.Intn(10)+2)
		b := randTraj(rng, rng.Intn(10)+2)
		full := (DTW{}).Dist(a, b)
		for _, r := range []float64{0, 0.1, 0.3, 0.6} {
			band := (CDTW{R: r}).Dist(a, b)
			if band < full-1e-9 {
				t.Errorf("CDTW(R=%v) = %v below DTW %v", r, band, full)
			}
		}
	}
}

func TestCDTWBandMonotoneInR(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := randTraj(rng, 15)
	b := randTraj(rng, 12)
	prev := math.Inf(1)
	for _, r := range []float64{0, 0.2, 0.4, 0.6, 0.8, 1} {
		d := (CDTW{R: r}).Dist(a, b)
		if d > prev+1e-9 {
			t.Errorf("CDTW not monotone: R=%v gives %v > previous %v", r, d, prev)
		}
		prev = d
	}
}

func TestRegistry(t *testing.T) {
	names := Names()
	if got, want := strings.Join(names, " "), "dtw edr erp frechet"; got != want {
		t.Fatalf("registered measures %q, want %q", got, want)
	}
	for _, n := range names {
		m, err := ByName(n)
		if err != nil {
			t.Fatalf("ByName(%q): %v", n, err)
		}
		if m.Name() != n {
			t.Errorf("ByName(%q).Name() = %q", n, m.Name())
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("expected error for unknown measure")
	}
}

func TestEmptyTrajectoryDistances(t *testing.T) {
	a := traj.FromXY(0, 0, 1, 1)
	empty := traj.New()
	for _, m := range []Measure{DTW{}, Frechet{}, ERP{}, EDR{Eps: 0.5}} {
		if d := m.Dist(a, empty); !math.IsInf(d, 1) {
			t.Errorf("%s vs empty = %v, want +Inf", m.Name(), d)
		}
		if d := m.Dist(empty, a); !math.IsInf(d, 1) {
			t.Errorf("%s empty vs a = %v, want +Inf", m.Name(), d)
		}
	}
}

func TestSegmentMeasureDegenerateFallback(t *testing.T) {
	single := traj.FromXY(1, 1)
	q := traj.FromXY(0, 0, 1, 0)
	for _, m := range []Measure{EDS{}, EDwP{}} {
		want := (DTW{}).Dist(single, q)
		if got := m.Dist(single, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("%s degenerate = %v, want DTW fallback %v", m.Name(), got, want)
		}
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on duplicate registration")
		}
	}()
	Register("dtw", func() Measure { return DTW{} })
}
