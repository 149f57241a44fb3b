// Package sim implements trajectory similarity measurements behind an
// abstract interface, mirroring §3.2 of the paper.
//
// All measures are expressed as *dissimilarities* (smaller is more similar).
// The paper's similarity Θ is obtained with Sim (Θ = 1/(1+d)), a monotone
// inversion, so maximizing Θ and minimizing d are interchangeable.
//
// Each measure provides, beyond a from-scratch distance (cost Φ), an
// Incremental computer that evaluates d(T[i,i],Tq) from scratch (cost Φini)
// and then d(T[i,j],Tq) from d(T[i,j-1],Tq) (cost Φinc). Table 1 of the
// paper summarizes the costs:
//
//	measure   Φ        Φinc   Φini
//	t2vec     O(n+m)   O(1)   O(1)
//	DTW       O(n·m)   O(m)   O(m)
//	Fréchet   O(n·m)   O(m)   O(m)
//
// Each measure has exactly one computer type behind one interface,
// Incremental, which scores both ranges of a stored trajectory and pushed
// point sequences that are not ranges of one (RLS-Skip's simplified state
// of §5.4). Push
// is the primitive: Init(i) is Reset then Push(t.Pt(i)), and Extend is
// Push(t.Pt(End()+1)). The first Push fills the first DP row with the same
// helper Dist uses, so a computer and Dist agree bit for bit. Each DP
// measure has one row kernel, which also returns the new row's minimum:
// Push ignores it and ExtendAbandoning compares it against the threshold.
// CDTW, whose band depends on the final length, buffers its points and
// recomputes from scratch per point.
//
// Suffix similarities Θ(T[i,n]^R, Tq^R) are computed by running an
// Incremental over the reversed trajectories; SuffixDists wraps that.
package sim

import (
	"fmt"
	"sort"

	"simsub/internal/geo"
	"simsub/internal/traj"
)

// Measure is an abstract trajectory dissimilarity measurement. Smaller
// distances mean more similar trajectories. Implementations must be safe for
// concurrent use by multiple goroutines.
type Measure interface {
	// Name returns the canonical lower-case name, e.g. "dtw".
	Name() string
	// Dist computes the dissimilarity between t and q from scratch (cost Φ).
	Dist(t, q traj.Trajectory) float64
	// NewIncremental returns a computer for distances between subtrajectories
	// of t that share a start point, and q. The computer is single-goroutine.
	NewIncremental(t, q traj.Trajectory) Incremental
}

// Incremental computes d(T[i,j], Q) for a fixed start i and increasing end j.
// Usage: Init(i) returns d(T[i,i],Q); each Extend advances j by one and
// returns d(T[i,j],Q). Extending past the end of T is a programming error
// and panics. The same computer also scores a growing point sequence that
// is not a range of T (Push, Len, Reset); a computer built with an empty T
// (NewStream) is used that way only.
type Incremental interface {
	// Init begins a fresh scan at start index i (0-based) and returns
	// d(T[i,i], Q). Cost Φini.
	Init(i int) float64
	// Extend advances the end index by one and returns the new distance.
	// Cost Φinc.
	Extend() float64
	// ExtendAbandoning advances the end index by one like Extend. When
	// abandoned is false, d is exactly d(T[i,j], Q) for the new end j. When
	// abandoned is true, the computer has proven that d(T[i,j'], Q) > tau
	// strictly for the new end and EVERY later end j' of this start, d is a
	// lower bound on those distances, and the computer must be re-Init-ed
	// before further use. Kernels whose row minimum never decreases as the
	// subtrajectory grows (DTW, Fréchet, ERP, EDR) abandon on it; the other
	// computers never abandon.
	ExtendAbandoning(tau float64) (d float64, abandoned bool)
	// End returns the current end index j (0-based).
	End() int
	// Push appends p to the sequence and returns the distance between the
	// sequence so far and Q. The first Push after Reset costs Φini, each
	// later one Φinc.
	Push(p geo.Point) float64
	// Len returns the number of points consumed since the last Reset.
	Len() int
	// Reset empties the sequence so the computer can be reused.
	Reset()
}

// Sim converts a dissimilarity into the paper's similarity Θ = 1/(1+d).
// It maps [0,∞) monotonically onto (0,1], with identical trajectories at 1.
func Sim(d float64) float64 { return 1 / (1 + d) }

// DistFromSim inverts Sim.
func DistFromSim(s float64) float64 { return 1/s - 1 }

// SuffixDists returns, for every start index i of t, the distance
// d(T[i,n-1]^R, Q^R) between the reversed suffix and the reversed query,
// computed incrementally in O(n·Φinc) total as in PSS (Algorithm 2, lines
// 2-3). The result is indexed by i (0-based): out[i] = d(T[i,n-1]^R, Q^R).
//
// For reversal-invariant measures (DTW, Fréchet) this equals d(T[i,n-1], Q);
// for others (e.g. t2vec) it is positively correlated, as the paper found
// empirically.
func SuffixDists(m Measure, t, q traj.Trajectory) []float64 {
	out := make([]float64, t.Len())
	if t.Len() == 0 {
		return out
	}
	return SuffixDistsInto(out, m, t.Reverse(), q.Reverse())
}

// SuffixDistsInto is SuffixDists with the reversals and the output buffer
// supplied by the caller: tr and qr must be the already-reversed data and
// query trajectories (scans reverse q once per query and each candidate
// into scratch of their own), and dst is reused when its capacity
// suffices. This is the scan hot path's allocation-free form.
func SuffixDistsInto(dst []float64, m Measure, tr, qr traj.Trajectory) []float64 {
	n := tr.Len()
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	if n == 0 {
		return dst
	}
	inc := m.NewIncremental(tr, qr)
	defer Release(inc)
	// reversed(T)[0..k] corresponds to suffix T[n-1-k .. n-1].
	dst[n-1] = inc.Init(0)
	for k := 1; k < n; k++ {
		dst[n-1-k] = inc.Extend()
	}
	return dst
}

// SuffixSlack is the relative slack δ between SuffixDistsInto's values and
// the forward distances of the same suffixes, for an n-point data
// trajectory and a q-point query under m. A suffix value is the measure's
// DP run over the reversed pair, so under a sum-based measure (DTW, CDTW,
// ERP) it folds each alignment path's costs in the opposite order to Dist
// and may land some ulps below Dist of the same suffix. A path has at most
// n+q non-negative costs, so with k = n+q and u = 2⁻⁵³ both folds lie
// within a relative γ_k ≤ 2ku of the exact path sum, and every suffix
// value s is at least (1−4ku)·X for any X no greater than the forward
// distance of every subtrajectory (a cascade lower bound, or the
// free-start minimum d*). δ = 8ku leaves room for the two rounded
// products a caller forms with it:
//
//	X·(1−δ) ≤ s            in floating point, X ≥ 0
//	X > τ·(1+δ)  ⇒  s > τ   in floating point, τ ≥ 0
//
// The free-start pass's reverse gate (freestart.go) uses it the other way
// round: the first interval at the minimum d* folds to at most d*·(1+δ)
// over the reversed pair, so a reverse gate at that bound keeps its start.
//
// A max (Fréchet) or an integer count (EDR) is the same whatever the
// order, and takes δ = 0; any other measure takes the sum bound.
func SuffixSlack(m Measure, n, q int) float64 {
	switch m.(type) {
	case Frechet, EDR:
		return 0
	}
	return float64(8*(n+q)) * 0x1p-53
}

// PrefixDists returns d(T[0,j], Q) for every end index j, computed
// incrementally in O(Φini + n·Φinc) total.
func PrefixDists(m Measure, t, q traj.Trajectory) []float64 {
	n := t.Len()
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	inc := m.NewIncremental(t, q)
	defer Release(inc)
	out[0] = inc.Init(0)
	for j := 1; j < n; j++ {
		out[j] = inc.Extend()
	}
	return out
}

// AllSubDists enumerates the distances of all n(n+1)/2 subtrajectories of t
// to q using the incremental strategy of ExactS, in O(n·(Φini + n·Φinc)).
// The callback receives (i, j, dist) for every 0 <= i <= j < n. It is the
// building block for exact search and for the MR/RR effectiveness metrics.
func AllSubDists(m Measure, t, q traj.Trajectory, fn func(i, j int, d float64)) {
	n := t.Len()
	if n == 0 {
		return
	}
	// one computer re-Init-ed per start (Init begins a fresh scan), so the
	// enumeration performs no per-start allocations
	inc := m.NewIncremental(t, q)
	defer Release(inc)
	for i := 0; i < n; i++ {
		fn(i, i, inc.Init(i))
		for j := i + 1; j < n; j++ {
			fn(i, j, inc.Extend())
		}
	}
}

// registry of constructors for ByName: the served measures that need no
// model (dtw, edr, erp, frechet). The query surface resolves measure names
// here, except "t2vec", which the engine binds to its registered encoder;
// /v2/stats lists Names() plus t2vec while an encoder is registered. A
// measure type that is not registered (CDTW, EDS, EDwP) is a library type
// only. Parameterized measures register reasonable defaults.
var registry = map[string]func() Measure{}

// Register installs a measure constructor under its canonical name.
// It panics on duplicates; registration happens at init time.
func Register(name string, fn func() Measure) {
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("sim: duplicate measure %q", name))
	}
	registry[name] = fn
}

// ByName constructs a measure by canonical name. Names returns valid names.
func ByName(name string) (Measure, error) {
	fn, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("sim: unknown measure %q (have %v)", name, Names())
	}
	return fn(), nil
}

// Names lists registered measure names in sorted order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
