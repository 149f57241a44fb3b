package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"simsub/internal/geo"
	"simsub/internal/sim"
	"simsub/internal/traj"
)

// Equivalence tests for the threshold pipeline: across measures,
// algorithms and filters, the pruned scan must produce rankings
// byte-identical to the unpruned reference over a 1000-trajectory store.

func equivData(n, pts int, seed int64) []traj.Trajectory {
	rng := rand.New(rand.NewSource(seed))
	ts := make([]traj.Trajectory, n)
	for i := range ts {
		p := make([]geo.Point, pts)
		x, y := rng.Float64()*20, rng.Float64()*20
		for j := range p {
			x += rng.NormFloat64() * 0.3
			y += rng.NormFloat64() * 0.3
			p[j] = geo.Point{X: x, Y: y, T: float64(j)}
		}
		ts[i] = traj.Trajectory{ID: i, Points: p}
	}
	return ts
}

// unprunedTopK is the reference ranking: the plain per-candidate scan
// (ScanFilteredCtx calls Algorithm.Search directly, no thresholds) sorted
// by the canonical order.
func unprunedTopK(t *testing.T, db *Database, alg Algorithm, q traj.Trajectory, k int, filter *geo.Rect) []Match {
	t.Helper()
	var all []Match
	if err := db.ScanFilteredCtx(context.Background(), alg, q, filter, func(m Match) error {
		all = append(all, m)
		return nil
	}); err != nil {
		t.Fatalf("reference scan: %v", err)
	}
	sort.Slice(all, func(i, j int) bool { return matchLess(all[i], all[j]) })
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

func TestPrunedScanEquivalence(t *testing.T) {
	const k = 10
	data := equivData(1000, 24, 11)
	db := NewDatabase(data, false)
	queries := equivData(3, 9, 12)
	filter := &geo.Rect{MinX: 0, MinY: 0, MaxX: 14, MaxY: 14}

	measures := []sim.Measure{
		sim.DTW{}, sim.CDTW{R: 0.25}, sim.Frechet{}, sim.EDR{Eps: 0.4},
		sim.ERP{}, sim.EDS{}, sim.EDwP{},
	}
	algs := func(m sim.Measure) []Algorithm {
		return []Algorithm{ExactS{M: m}, SizeS{M: m, Xi: 4}, PSS{M: m}, POS{M: m}, POSD{M: m, D: 5}}
	}

	var total PruneStats
	for _, m := range measures {
		// ExactS over CDTW recomputes the band DP from scratch per
		// extension; keep its share of the matrix affordable
		for _, alg := range algs(m) {
			for _, f := range []*geo.Rect{nil, filter} {
				name := fmt.Sprintf("%s/%s/filter=%v", m.Name(), alg.Name(), f != nil)
				for qi, q := range queries {
					if m.Name() == "cdtw" && alg.Name() == "ExactS" && qi > 0 {
						break
					}
					want := unprunedTopK(t, db, alg, q, k, f)
					var st PruneStats
					got, err := db.TopKPrunedCtx(context.Background(), alg, q, k, f, nil, &st)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if len(got) != len(want) {
						t.Fatalf("%s q%d: got %d matches, want %d", name, qi, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Errorf("%s q%d rank %d: pruned %+v, unpruned %+v", name, qi, i, got[i], want[i])
						}
					}
					total.Add(st)
				}
			}
		}
	}
	if total.LBSkipped == 0 {
		t.Error("lower-bound cascade never skipped a candidate across the whole matrix")
	}
	if total.Abandoned == 0 {
		t.Error("no search was ever abandoned across the whole matrix")
	}
	t.Logf("prune stats: %+v (scored %.1f%%)", total,
		100*float64(total.Scored)/float64(total.Candidates))
}

// sharedTopK is the engine's scatter in miniature: workers goroutines each
// run ScanPrunedSourceCtx over one stripe of the candidate list, all into
// one Collector, so every search prunes against the best k-th distance any
// worker has found. Its ranking must be the serial scan's.
func sharedTopK(db *Database, alg Algorithm, q traj.Trajectory, k, workers int) ([]Match, error) {
	cands := db.Candidates(q, nil)
	c := NewCollector(k)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		stripe := []int{} // never nil: a nil list would scan every candidate
		for i := w; i < len(cands); i += workers {
			stripe = append(stripe, cands[i])
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = db.ScanPrunedSourceCtx(context.Background(), alg, q, nil, c, nil, stripe, c.offer)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return c.Sorted(), nil
}

// TestPrunedScanSharedThreshold drives the same equivalence through
// concurrent scans whose workers share the global k-th-best atomically.
func TestPrunedScanSharedThreshold(t *testing.T) {
	const k = 10
	data := equivData(1000, 24, 21)
	db := NewDatabase(data, false)
	q := equivData(1, 9, 22)[0]
	for _, m := range []sim.Measure{sim.DTW{}, sim.Frechet{}} {
		alg := ExactS{M: m}
		want := unprunedTopK(t, db, alg, q, k, nil)
		for run := 0; run < 3; run++ {
			got, err := sharedTopK(db, alg, q, k, 8)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s run %d: got %d matches, want %d", m.Name(), run, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("%s run %d rank %d: parallel pruned %+v, want %+v", m.Name(), run, i, got[i], want[i])
				}
			}
		}
	}
}

// TestTopKExactPrunedEquivalence checks the natively pruned TopKExact (and
// TopKSplit over its suffix state) against seed-faithful
// references, distinct on and off.
func TestTopKExactPrunedEquivalence(t *testing.T) {
	data := equivData(40, 30, 31)
	q := equivData(1, 10, 32)[0]
	measures := []sim.Measure{
		sim.DTW{}, sim.Frechet{}, sim.EDR{Eps: 0.4}, sim.ERP{},
		sim.CDTW{R: 0.25}, sim.EDS{}, sim.EDwP{},
	}
	for _, m := range measures {
		for _, distinct := range []bool{false, true} {
			for _, tr := range data[:8] {
				// reference: the unpruned full enumeration feeding the
				// same heap
				ref := &resultHeap{k: 5, distinct: distinct}
				sim.AllSubDists(m, tr, q, func(i, j int, d float64) {
					ref.offer(Result{Interval: traj.Interval{I: i, J: j}, Dist: d})
				})
				want := ref.sorted()
				got := TopKExact(m, tr, q, 5, distinct)
				if len(got) != len(want) {
					t.Fatalf("%s distinct=%v: got %d results, want %d", m.Name(), distinct, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("%s distinct=%v rank %d: %+v, want %+v", m.Name(), distinct, i, got[i], want[i])
					}
				}
				// TopKSplit: candidates are the PSS scan's prefixes and
				// suffixes; its answers must match a from-first-principles
				// rerun of that scan
				gotSplit := TopKSplit(m, tr, q, 5, distinct)
				refSplit := &resultHeap{k: 5, distinct: distinct}
				suf := sim.SuffixDists(m, tr, q)
				bestDist, start := 1e308, 0
				var inc sim.Incremental
				var dPre float64
				for i := 0; i < tr.Len(); i++ {
					if i == start {
						inc = m.NewIncremental(tr, q)
						dPre = inc.Init(i)
					} else {
						dPre = inc.Extend()
					}
					refSplit.offer(Result{Interval: traj.Interval{I: start, J: i}, Dist: dPre})
					refSplit.offer(Result{Interval: traj.Interval{I: i, J: tr.Len() - 1}, Dist: suf[i]})
					minD := dPre
					if suf[i] < minD {
						minD = suf[i]
					}
					if minD < bestDist {
						bestDist = minD
						start = i + 1
					}
				}
				wantSplit := refSplit.sorted()
				if len(gotSplit) != len(wantSplit) {
					t.Fatalf("%s distinct=%v TopKSplit: got %d, want %d", m.Name(), distinct, len(gotSplit), len(wantSplit))
				}
				for i := range gotSplit {
					if gotSplit[i] != wantSplit[i] {
						t.Errorf("%s distinct=%v TopKSplit rank %d: %+v, want %+v", m.Name(), distinct, i, gotSplit[i], wantSplit[i])
					}
				}
			}
		}
	}
}

// TestCollector checks the one top-k heap against its specification: after
// every offer the retained set is sort-everything-under-RankBefore-and-
// truncate and the published threshold is min(seed, k-th best) — +Inf until
// k matches are retained, never increasing — over random offer sequences
// whose distances tie heavily across rank k.
func TestCollector(t *testing.T) {
	atDist := func(ds ...float64) []Match {
		ms := make([]Match, len(ds))
		for i, d := range ds {
			ms[i] = Match{TrajIndex: i, Result: Result{Dist: d}}
		}
		return ms
	}
	type input struct {
		k      int
		seed   float64
		offers []Match
	}
	inputs := []input{
		// thresholds +Inf, +Inf, 9, 5 (evicts 9), 5 (no-op), 3
		{3, math.Inf(1), atDist(5, 3, 9, 1, 100, 2)},
		{2, 4, atDist(9, 4, 4, 7, 1)},
		{0, 1, atDist(1, 2)},
		{-3, math.Inf(1), atDist(1, 2)},
	}
	rng := rand.New(rand.NewSource(91))
	for i := 0; i < 40; i++ {
		// a handful of distances, trajectories and intervals: ties at every
		// level of RankBefore, but — as in a scan — no match offered twice
		offers := make([]Match, rng.Intn(54))
		for j, c := range rng.Perm(54)[:len(offers)] {
			offers[j] = Match{TrajIndex: c / 9, Result: Result{
				Dist:     float64(rng.Intn(4)),
				Interval: traj.Interval{I: c / 3 % 3, J: 3 + c%3},
			}}
		}
		seed := math.Inf(1)
		if i%2 == 1 {
			seed = float64(rng.Intn(4))
		}
		inputs = append(inputs, input{1 + rng.Intn(8), seed, offers})
	}
	for ii, in := range inputs {
		c := NewCollector(in.k)
		if got := c.Threshold(); !math.IsInf(got, 1) {
			t.Fatalf("input %d: fresh threshold = %v, want +Inf", ii, got)
		}
		c.Seed(in.seed)
		c.Seed(math.NaN())   // ignored
		c.Seed(in.seed + 10) // never raises
		prev := c.Threshold()
		var all []Match
		for oi, m := range in.offers {
			retained := c.Offer(m)
			all = append(all, m)
			want := slices.Clone(all)
			sort.SliceStable(want, func(i, j int) bool { return matchLess(want[i], want[j]) })
			want = want[:max(0, min(in.k, len(want)))]
			got := c.Sorted()
			if !slices.Equal(got, want) {
				t.Fatalf("input %d after offer %d:\ngot  %+v\nwant %+v", ii, oi, got, want)
			}
			if retained != slices.Contains(got, m) {
				t.Fatalf("input %d offer %d: Offer reported %v for %+v, retained %+v", ii, oi, retained, m, got)
			}
			wantTau := math.Inf(1)
			if in.k > 0 {
				wantTau = in.seed
				if len(want) == in.k && want[in.k-1].Result.Dist < wantTau {
					wantTau = want[in.k-1].Result.Dist
				}
			}
			tau := c.Threshold()
			if tau != wantTau || tau > prev {
				t.Fatalf("input %d after offer %d: threshold %v (previous %v), want %v", ii, oi, tau, prev, wantTau)
			}
			prev = tau
		}
	}

	// the collector itself never filters on the seed — pruning against it is
	// the scan's job, and strict — so a match at exactly the seed survives
	c := NewCollector(2)
	c.Seed(4)
	at := Match{TrajIndex: 1, Result: Result{Dist: 4}}
	if !c.Offer(at) || !slices.Contains(c.Sorted(), at) {
		t.Fatal("a match at exactly the seed was not retained")
	}

	// goroutines offering disjoint halves end at the serial ranking
	offers := make([]Match, 400)
	for i := range offers {
		offers[i] = Match{TrajIndex: i, Result: Result{Dist: float64(rng.Intn(5))}}
	}
	serial, shared := NewCollector(10), NewCollector(10)
	for _, m := range offers {
		serial.Offer(m)
	}
	var wg sync.WaitGroup
	for _, half := range [][]Match{offers[:200], offers[200:]} {
		wg.Add(1)
		go func(half []Match) {
			defer wg.Done()
			for _, m := range half {
				shared.Offer(m)
				shared.Threshold()
			}
		}(half)
	}
	wg.Wait()
	if got, want := shared.Sorted(), serial.Sorted(); !slices.Equal(got, want) {
		t.Fatalf("concurrent offers:\ngot  %+v\nwant %+v", got, want)
	}
	if shared.Threshold() != serial.Threshold() {
		t.Fatalf("concurrent threshold %v, serial %v", shared.Threshold(), serial.Threshold())
	}
}

// tieData is a corpus built to tie: walks on a small integer lattice with
// stationary runs, so trajectories share sub-paths, whole groups of them
// sit at the same distance from a query, and within one trajectory dozens
// of intervals share the minimum (the Fréchet bottleneck especially).
func tieData(n, pts int, seed int64) []traj.Trajectory {
	rng := rand.New(rand.NewSource(seed))
	ts := make([]traj.Trajectory, n)
	for i := range ts {
		p := make([]geo.Point, 0, pts)
		x, y := rng.Intn(5), rng.Intn(5)
		for len(p) < pts {
			for r := rng.Intn(3); r >= 0 && len(p) < pts; r-- {
				p = append(p, geo.Point{X: float64(x), Y: float64(y), T: float64(len(p))})
			}
			if rng.Intn(2) == 0 {
				x = (x + 1 + 3*rng.Intn(2)) % 5 // ±1 mod 5
			} else {
				y = (y + 1 + 3*rng.Intn(2)) % 5
			}
		}
		ts[i] = traj.Trajectory{ID: i, Points: p}
	}
	return ts
}

// TestPrunedScanTieHeavy: with ties everywhere the gate's "same bits, same
// first interval" claim and the best-first visit order's "set, not order"
// claim carry the whole ranking — every retained match must equal what
// ExactS.Search reports for it (interval, distance bits, Explored), serial
// and with workers racing on the shared threshold.
func TestPrunedScanTieHeavy(t *testing.T) {
	const k = 10
	data := tieData(600, 30, 61)
	db := NewDatabase(data, false)
	onLattice := tieData(2, 7, 62)
	// half a cell off the lattice: every lattice point near the query is
	// at one of a handful of distances
	offLattice := tieData(1, 6, 63)[0].Translate(0.5, 0.5)
	queries := append(onLattice, offLattice)

	for _, m := range []sim.Measure{sim.Frechet{}, sim.DTW{}} {
		alg := ExactS{M: m}
		tiedAcrossK := false
		for qi, q := range queries {
			want := unprunedTopK(t, db, alg, q, k+1, nil)
			if want[k-1].Result.Dist == want[k].Result.Dist {
				tiedAcrossK = true
			}
			want = want[:k]
			check := func(how string, got []Match, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s q%d %s: %v", m.Name(), qi, how, err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s q%d %s: got %d matches, want %d", m.Name(), qi, how, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("%s q%d %s rank %d: pruned %+v, ExactS %+v", m.Name(), qi, how, i, got[i], want[i])
					}
				}
			}
			got, err := db.TopKPrunedCtx(context.Background(), alg, q, k, nil, nil, nil)
			check("serial", got, err)
			for run := 0; run < 3; run++ {
				got, err = sharedTopK(db, alg, q, k, 8)
				check("parallel", got, err)
			}
		}
		if !tiedAcrossK {
			t.Errorf("%s: no query tied across the k-th rank; the corpus no longer exercises ties", m.Name())
		}
	}
}

// TestSpringMatchesFreeStartDTW: unbanded SPRING and DTW's free-start pass
// are the same recurrence written twice, independently — data-major with
// start tracking there, query-major here — and must agree to the bit.
func TestSpringMatchesFreeStartDTW(t *testing.T) {
	data := append(equivData(40, 30, 71), tieData(40, 30, 72)...)
	queries := append(equivData(3, 9, 73), tieData(3, 7, 74)...)
	for _, q := range queries {
		for _, tr := range data {
			want := Spring{}.Search(tr, q).Dist
			_, got, abandoned := sim.DTW{}.MinSub(tr, q, math.Inf(1))
			if abandoned || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("traj %d: MinSub = (%v, %v), Spring %v", tr.ID, got, abandoned, want)
			}
		}
	}
}

// TestPrunedScanAllocations: the gate's column is pooled, the visit order
// is one buffer per scan and PSS's suffix pass reverses every candidate
// into one scratch, so what a scan allocates does not grow with the
// candidates it drops on their bounds — only with the few that reach a
// search (one Incremental per scored one, two for PSS's prefix and suffix
// passes; the factor leaves room for every pooled row to miss, which the
// race detector makes sync.Pool do) and the Collector's k-match heap and
// its sorted copy.
func TestPrunedScanAllocations(t *testing.T) {
	const k = 10
	db := NewDatabase(equivData(500, 24, 81), false)
	q := equivData(1, 9, 82)[0]
	for _, alg := range []Algorithm{ExactS{M: sim.DTW{}}, PSS{M: sim.DTW{}}} {
		var st PruneStats
		scan := func() {
			st = PruneStats{}
			if _, err := db.TopKPrunedCtx(context.Background(), alg, q, k, nil, nil, &st); err != nil {
				t.Fatal(err)
			}
		}
		scan() // warm the row pool
		allocs := testing.AllocsPerRun(20, scan)
		if st.Candidates != 500 || st.Scored >= 100 {
			t.Fatalf("%s: unexpected scan shape: %+v", alg.Name(), st)
		}
		if limit := float64(5*(st.Scored+st.Abandoned) + 2*k + 24); allocs > limit {
			t.Errorf("%s: scan over %d candidates (%d scored) allocates %.0f objects, want <= %.0f",
				alg.Name(), st.Candidates, st.Scored, allocs, limit)
		}
		t.Logf("%s: allocs/scan %.0f for %+v", alg.Name(), allocs, st)
	}
	// the bound has room for a few allocations per scored candidate, so the
	// suffix pass's scratch is pinned directly: once grown, every candidate
	// no longer than the last is reversed into the same backing arrays
	p := &suffixPass{m: sim.DTW{}, qRev: q.Reverse()}
	ts := equivData(2, 24, 83)
	p.dists(ts[0])
	rev, suf := &p.rev[0], &p.suf[0]
	if p.dists(ts[1]); &p.rev[0] != rev || &p.suf[0] != suf {
		t.Error("the suffix pass re-allocated its scratch for a candidate of the same length")
	}
}
