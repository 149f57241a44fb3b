package sim

import (
	"sync"
	"testing"

	"simsub/internal/geo"
	"simsub/internal/traj"
)

// The DP row pool is shared by every measure and every goroutine; this
// test hammers it from concurrent scans of all pooled kernels and checks
// the distances stay identical to a quiet single-goroutine run. Run under
// -race (CI does) it also proves rows are never shared while in use.

func poolTraj(seed, n int) traj.Trajectory {
	pts := make([]geo.Point, n)
	x, y := float64(seed%7), float64(seed%5)
	for i := range pts {
		x += float64((seed*31+i*17)%13)/13 - 0.5
		y += float64((seed*37+i*19)%11)/11 - 0.5
		pts[i] = geo.Point{X: x, Y: y, T: float64(i)}
	}
	return traj.Trajectory{Points: pts}
}

func TestRowPoolConcurrentScans(t *testing.T) {
	measures := []Measure{DTW{}, CDTW{R: 0.25}, Frechet{}, ERP{}, EDR{Eps: 0.4}}
	data := make([]traj.Trajectory, 24)
	for i := range data {
		data[i] = poolTraj(i+1, 20)
	}
	q := poolTraj(99, 8)

	// quiet reference values, one (measure, trajectory) pair at a time
	type key struct{ m, t int }
	want := map[key][]float64{}
	for mi, m := range measures {
		for ti, tr := range data {
			var ds []float64
			AllSubDists(m, tr, q, func(_, _ int, d float64) { ds = append(ds, d) })
			ds = append(ds, m.Dist(tr, q))
			want[key{mi, ti}] = ds
		}
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				for mi, m := range measures {
					for ti, tr := range data {
						k := key{mi, ti}
						i := 0
						AllSubDists(m, tr, q, func(_, _ int, d float64) {
							if d != want[k][i] {
								select {
								case errs <- m.Name() + ": concurrent AllSubDists diverged":
								default:
								}
							}
							i++
						})
						if d := m.Dist(tr, q); d != want[k][len(want[k])-1] {
							select {
							case errs <- m.Name() + ": concurrent Dist diverged":
							default:
							}
						}
						// abandoning path: every computer's ExtendAbandoning
						// shares the pool too
						inc := m.NewIncremental(tr, q)
						inc.Init(0)
						for j := 1; j < tr.Len(); j++ {
							if _, abandoned := inc.ExtendAbandoning(want[k][0]); abandoned {
								break
							}
						}
						Release(inc)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}

// TestReleaseReuse ensures a computer survives Init-reuse after pooled
// rows have been dirtied by other users.
func TestReleaseReuse(t *testing.T) {
	q := poolTraj(3, 9)
	tr := poolTraj(5, 15)
	for _, m := range []Measure{DTW{}, Frechet{}, ERP{}, EDR{Eps: 0.4}} {
		inc := m.NewIncremental(tr, q)
		first := inc.Init(2)
		for j := 3; j < 10; j++ {
			inc.Extend()
		}
		// dirty the pool with unrelated work, then re-Init the same start
		for i := 0; i < 4; i++ {
			_ = m.Dist(poolTraj(i+7, 12), q)
		}
		again := inc.Init(2)
		if first != again {
			t.Errorf("%s: Init(2) = %v after reuse, want %v", m.Name(), again, first)
		}
		Release(inc)
	}
}

// TestComputersAllocateNothing: a computer takes its rows at construction,
// so restarting it — Init per scan start, Reset per RLS-Skip split —
// allocates nothing once warm.
func TestComputersAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	q := poolTraj(3, 9)
	tr := poolTraj(5, 15)
	for _, m := range allMeasures() {
		inc := m.NewIncremental(tr, q)
		scan := func() {
			inc.Init(2)
			for j := 3; j < tr.Len(); j++ {
				inc.Extend()
			}
		}
		scan()
		if a := testing.AllocsPerRun(20, scan); a > 0 {
			t.Errorf("%s: an Init+Extend cycle allocates %.1f objects, want 0", m.Name(), a)
		}
		Release(inc)
		s := NewStream(m, q)
		stream := func() {
			s.Reset()
			for _, p := range tr.Points {
				s.Push(p)
			}
		}
		stream()
		if a := testing.AllocsPerRun(20, stream); a > 0 {
			t.Errorf("%s: a Reset+Push cycle allocates %.1f objects, want 0", m.Name(), a)
		}
	}
}
