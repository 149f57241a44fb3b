package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"simsub/internal/geo"
	"simsub/internal/rl"
	"simsub/internal/sim"
	"simsub/internal/traj"
)

// This file pins the free-start gate of the suffix-reading searches (PSS,
// and RLS when the policy reads Θsuf): a gated Search must answer exactly
// as the same search with the gate removed, at every threshold.

// gateCase is one suffix-reading search, gated as served and with its gate
// removed.
type gateCase struct {
	name           string
	gated, ungated ThresholdSearch
	cascade        *cascade // the gated search's
}

// gateTables compiles the table policies the gate is checked under: K = 0
// (RLS) and K = 3 (RLS-Skip), both reading Θsuf.
func gateTables(tb testing.TB) []*rl.TablePolicy {
	var out []*rl.TablePolicy
	for _, k := range []int{0, 3} {
		table, err := rl.Compile(noisyPolicy(int64(40+k), k, true, false), 8)
		if err != nil {
			tb.Fatalf("Compile K=%d: %v", k, err)
		}
		out = append(out, table)
	}
	return out
}

// gateCases builds PSS and the table-served RLS searches for one query.
func gateCases(m sim.Measure, q traj.Trajectory, tables []*rl.TablePolicy) []gateCase {
	algs := []ThresholdSearcher{PSS{M: m}}
	for _, tb := range tables {
		algs = append(algs, RLS{M: m, Table: tb})
	}
	var out []gateCase
	for _, alg := range algs {
		gated, ungated := alg.NewThresholdSearch(q), alg.NewThresholdSearch(q)
		gc := gateCase{name: fmt.Sprintf("%s/%s", m.Name(), alg.Name()), gated: gated, ungated: ungated}
		switch s := gated.(type) {
		case *splitThresholdSearch:
			gc.cascade = &s.cascade
			ungated.(*splitThresholdSearch).gate = nil
		case *rlsThresholdSearch:
			gc.cascade = &s.cascade
			ungated.(*rlsThresholdSearch).gate = nil
		}
		out = append(out, gc)
	}
	return out
}

// checkSplitGate asserts, for every gate case over one pair, that the gated
// and the ungated Search agree on abandoned and, when the result is kept,
// on the Result itself (an abandoned Result carries no information). Besides
// taus it tries the ungated answer's distance and its two neighbouring
// floats, the best distance d* of any subtrajectory, 0 and +Inf. It returns
// how many searches the gate dropped.
func checkSplitGate(t *testing.T, m sim.Measure, data, q traj.Trajectory, tables []*rl.TablePolicy, taus []float64) (drops int) {
	t.Helper()
	meta := DeriveMeta(data)
	dStar := ExactS{M: m}.Search(data, q).Dist
	for _, gc := range gateCases(m, q, tables) {
		open, _ := gc.ungated.Search(data, meta, math.Inf(1))
		d := open.Dist
		for _, tau := range append(taus, d, math.Nextafter(d, 0), math.Nextafter(d, math.Inf(1)), dStar, 0, math.Inf(1)) {
			if gc.cascade.beyond(data, tau) {
				drops++
			}
			rg, ag := gc.gated.Search(data, meta, tau)
			ru, au := gc.ungated.Search(data, meta, tau)
			if ag != au || (!au && rg != ru) {
				t.Fatalf("%s n=%d m=%d tau=%v (d*=%v): gated (%+v, %v), ungated (%+v, %v)",
					gc.name, data.Len(), q.Len(), tau, dStar, rg, ag, ru, au)
			}
		}
		gc.gated.Release()
		gc.ungated.Release()
	}
	return drops
}

// gatePair draws a data trajectory and a query of kind 0 (lattice), 1
// (Gaussian) or 2 (stationary data), with coordinates times scale: lattice
// points tie, stationary data folds equal terms, and the scales move
// squared distances across magnitudes.
func gatePair(rng *rand.Rand, n, m int, kind int, scale float64) (data, q traj.Trajectory) {
	pt := func() geo.Point {
		if kind == 0 {
			return geo.Point{X: float64(rng.Intn(4)) * scale, Y: float64(rng.Intn(4)) * scale}
		}
		return geo.Point{X: rng.NormFloat64() * 5 * scale, Y: rng.NormFloat64() * 5 * scale}
	}
	mk := func(k int, still bool) traj.Trajectory {
		pts := make([]geo.Point, k)
		for i := range pts {
			if still && i > 0 {
				pts[i] = pts[0]
			} else {
				pts[i] = pt()
			}
		}
		return traj.New(pts...)
	}
	return mk(n, kind == 2), mk(m, false)
}

// stationaryCase is the smallest pair in the suffix slack's rounding
// window: a stationary candidate at the origin against query terms 2⁻⁵³,
// 2⁻⁵³, 1. Its forward distances fold to 1+2⁻⁵² at best, while its
// reversed suffix folds to exactly 1, which is what PSS and Θsuf RLS
// report.
func stationaryCase() (data, q traj.Trajectory) {
	o := geo.Point{}
	return traj.New(o, o, o), traj.New(geo.Point{X: 0x1p-53}, geo.Point{X: 0x1p-53}, geo.Point{X: 1})
}

func TestSplitGateMatchesUngated(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	tables := gateTables(t)
	data, q := stationaryCase()
	drops := checkSplitGate(t, sim.DTW{}, data, q, tables, []float64{1})
	for trial := 0; trial < 150; trial++ {
		kind := trial % 3
		scale := [...]float64{1, 1e-3, 1e6}[rng.Intn(3)]
		data, q := gatePair(rng, 1+rng.Intn(16), 1+rng.Intn(8), kind, scale)
		for _, m := range []sim.Measure{sim.DTW{}, sim.Frechet{}} {
			dStar := ExactS{M: m}.Search(data, q).Dist
			drops += checkSplitGate(t, m, data, q, tables, []float64{dStar * rng.Float64(), dStar * (1 + rng.Float64())})
		}
	}
	if drops == 0 {
		t.Error("the gate never dropped a search")
	}
}

// FuzzSplitGate is TestSplitGateMatchesUngated on fuzz inputs, at a
// fuzz-chosen threshold besides the fixed ones.
func FuzzSplitGate(f *testing.F) {
	f.Add(int64(1), uint8(9), uint8(4), 0.5, uint8(0), uint8(0))
	f.Add(int64(7), uint8(17), uint8(6), 0.99, uint8(1), uint8(2))
	f.Add(int64(-3), uint8(5), uint8(3), 1.0, uint8(2), uint8(1))
	f.Add(int64(12), uint8(0), uint8(0), 2.0, uint8(2), uint8(0))
	tables := gateTables(f)
	f.Fuzz(func(t *testing.T, seed int64, nRaw, mRaw uint8, tauScale float64, kindRaw, scaleRaw uint8) {
		rng := rand.New(rand.NewSource(seed))
		scale := [...]float64{1, 1e-3, 1e6}[int(scaleRaw)%3]
		data, q := gatePair(rng, int(nRaw)%24+1, int(mRaw)%10+1, int(kindRaw)%3, scale)
		for _, m := range []sim.Measure{sim.DTW{}, sim.Frechet{}} {
			var taus []float64
			if tau := (ExactS{M: m}).Search(data, q).Dist * tauScale; !math.IsNaN(tau) {
				taus = append(taus, tau)
			}
			checkSplitGate(t, m, data, q, tables, taus)
		}
	})
}

// TestSuffixSlackStationaryScan is the scan-level regression of the suffix
// slack on stationaryCase: a scan seeded at τ = 1 must keep the candidate;
// the unslackened cascade bound (1+2⁻⁵²) and the unslackened gate each
// drop it.
func TestSuffixSlackStationaryScan(t *testing.T) {
	data, q := stationaryCase()
	db := NewDatabase([]traj.Trajectory{data}, false)
	m := sim.DTW{}
	algs := []Algorithm{PSS{M: m}}
	for _, tb := range gateTables(t) {
		algs = append(algs, RLS{M: m, Table: tb})
	}
	for _, alg := range algs {
		want := alg.Search(db.Traj(0), q)
		if want.Dist != 1 {
			t.Fatalf("%s reports %v, want the reversed fold 1", alg.Name(), want.Dist)
		}
		col := NewCollector(1)
		col.Seed(1)
		var st PruneStats
		if err := db.ScanPrunedSourceCtx(context.Background(), alg, q, nil, col, &st, nil, col.offer); err != nil {
			t.Fatal(err)
		}
		if got := col.Sorted(); len(got) != 1 || got[0].Result != want {
			t.Errorf("%s seeded at 1: got %+v (%+v), want %+v", alg.Name(), got, st, want)
		}
	}
}
