package main

import (
	"sync"
	"time"
)

// calibKernel is a fixed piece of work owned by the benchmark: a min-plus
// dynamic-programming sweep of the same shape as the distance kernels, but
// sharing no code with the repository. How long it takes says how fast the
// machine is right now, and nothing about the commit under test.
func calibKernel() float64 {
	const n, m = 1200, 48
	var row [n]float64
	var q [m]float64
	for j := range q {
		q[j] = float64(j%7) * 0.31
	}
	s := 0.0
	for r := 0; r < 160; r++ {
		for i := 1; i < n; i++ {
			x := float64((i*31+r)%17) * 0.29
			for j := 1; j < m; j++ {
				d := x - q[j]
				if d < 0 {
					d = -d
				}
				best := row[i-1]
				if row[i] < best {
					best = row[i]
				}
				row[i] = d + best*0.5
			}
		}
		s += row[n-1]
	}
	return s
}

// calibrate runs the kernel on both processors at once and returns the
// slower one's time: the machine's speed as a two-worker scan sees it.
func calibrate() time.Duration {
	var out [2]time.Duration
	var sink [2]float64
	var wg sync.WaitGroup
	for p := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.Now()
			sink[p] = calibKernel()
			out[p] = time.Since(t)
		}()
	}
	wg.Wait()
	_ = sink
	return max(out[0], out[1])
}
