package router

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"
)

// ring is a consistent-hash ring over replica groups: each group owns
// VNodes points on a 64-bit circle, and a trajectory lands on the group
// owning the first point at or after its content hash (traj.Digest, so
// placement is deterministic across router restarts fed the same data in
// any batch arrangement). Virtual nodes keep
// the per-group share near uniform, and — the property consistent hashing
// buys over modulo placement — growing the fleet by one group moves only
// ~1/(groups+1) of the keyspace instead of reshuffling everything.
type ring struct {
	points []ringPoint // ascending by hash
}

type ringPoint struct {
	hash  uint64
	group int
}

// buildRing places vnodes points per group on the circle.
func buildRing(groups, vnodes int) ring {
	r := ring{points: make([]ringPoint, 0, groups*vnodes)}
	for g := 0; g < groups; g++ {
		for v := 0; v < vnodes; v++ {
			h := fnv.New64a()
			fmt.Fprintf(h, "group-%d-vnode-%d", g, v)
			r.points = append(r.points, ringPoint{hash: h.Sum64(), group: g})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// locate returns the group owning key: the first ring point clockwise from
// it, wrapping past the top of the circle.
func (r ring) locate(key uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].group
}

// latencyTracker keeps a sliding window of a node's recent round-trip
// times, feeding the hedge-delay quantile and the per-node RTT stats. It is
// safe for concurrent use.
type latencyTracker struct {
	mu      sync.Mutex
	samples []time.Duration // ring buffer
	next    int
	full    bool
}

const latencyWindow = 128

func newLatencyTracker() *latencyTracker {
	return &latencyTracker{samples: make([]time.Duration, latencyWindow)}
}

func (l *latencyTracker) record(d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.samples[l.next] = d
	l.next++
	if l.next == len(l.samples) {
		l.next, l.full = 0, true
	}
}

// snapshot copies the valid window, oldest-independent order.
func (l *latencyTracker) snapshot() []time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.next
	if l.full {
		n = len(l.samples)
	}
	out := make([]time.Duration, n)
	copy(out, l.samples[:n])
	return out
}

// quantile returns the q-quantile (0..1) of the recorded window, 0 with no
// samples yet.
func (l *latencyTracker) quantile(q float64) time.Duration {
	s := l.snapshot()
	if len(s) == 0 {
		return 0
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q * float64(len(s)-1))
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// mean returns the window mean, 0 with no samples yet.
func (l *latencyTracker) mean() time.Duration {
	s := l.snapshot()
	if len(s) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range s {
		sum += d
	}
	return sum / time.Duration(len(s))
}
