// Package rl implements the reinforcement-learning machinery of §5: the
// Markov decision process that models trajectory splitting (§5.1), deep
// Q-network training with experience replay (Algorithm 3, §5.2), and the
// greedy policies used by the RLS and RLS-Skip search algorithms
// (§5.3–5.4).
package rl

import (
	"math"

	"simsub/internal/sim"
	"simsub/internal/traj"
)

// SplitEnv is the trajectory-splitting MDP of §5.1.
//
// A state is the triplet (Θbest, Θpre, Θsuf) of similarities (Θ = 1/(1+d)):
// the best similarity seen so far, the similarity of the running prefix
// T[h,t], and the similarity of the reversed suffix T[t,n]^R against the
// reversed query. Actions are 0 (no split), 1 (split at the current point)
// and, when K > 0, action 1+j meaning "skip j points" for j = 1..K (§5.4).
// The reward of a transition is the increase of Θbest.
//
// With SimplifyState (RLS-Skip's state maintenance), skipped points are
// excluded from the prefix similarity — the prefix is streamed over scanned
// points only, a simplification of the true subtrajectory (§5.4). The
// reported best interval still spans the full index range.
type SplitEnv struct {
	m    sim.Measure
	t, q traj.Trajectory
	// UseSuffix includes Θsuf in states and candidate answers; the paper
	// drops it for t2vec (§6.1) and for RLS-Skip+ (§6.2(9)).
	useSuffix bool
	// simplifyState excludes skipped points from prefix maintenance.
	simplifyState bool

	suf      []float64 // suffix dists per start index (when useSuffix)
	stream   sim.Incremental
	pos      int // index of the point currently scanned
	h        int // start of the current segment
	done     bool
	dPre     float64
	dBest    float64
	best     traj.Interval
	explored int
	scanned  int // points whose prefix state was advanced (never skipped)
}

// EnvConfig configures a SplitEnv.
type EnvConfig struct {
	// UseSuffix includes the Θsuf component (default true for DTW/Fréchet
	// in the paper; false for t2vec).
	UseSuffix bool
	// SimplifyState enables RLS-Skip's skipped-point state simplification.
	SimplifyState bool
}

// NewSplitEnv builds the MDP for one (data, query) pair and observes the
// first state. The data and query trajectories must be non-empty.
func NewSplitEnv(m sim.Measure, t, q traj.Trajectory, cfg EnvConfig) *SplitEnv {
	e := &SplitEnv{
		m: m, t: t, q: q,
		useSuffix:     cfg.UseSuffix,
		simplifyState: cfg.SimplifyState,
	}
	e.Reset()
	return e
}

// Reset restarts the episode on the same trajectory pair.
func (e *SplitEnv) Reset() {
	e.pos, e.h = 0, 0
	e.done = false
	e.dBest = math.Inf(1)
	e.best = traj.Interval{}
	e.explored = 0
	e.scanned = 0
	if e.useSuffix {
		if e.suf == nil {
			e.suf = sim.SuffixDists(e.m, e.t, e.q)
			e.explored += e.t.Len()
		}
	}
	if e.stream == nil {
		e.stream = sim.NewStream(e.m, e.q)
	} else {
		e.stream.Reset()
	}
	e.dPre = e.stream.Push(e.t.Pt(0))
	e.explored++
	e.scanned++
}

// NewScanEnv builds an environment bound to a measure and query but no data
// trajectory yet: the reusable form for scan loops, which Rebind it at each
// candidate instead of allocating a fresh environment (and prefix stream)
// per trajectory. The environment is unusable until the first Rebind.
func NewScanEnv(m sim.Measure, q traj.Trajectory, cfg EnvConfig) *SplitEnv {
	return &SplitEnv{
		m: m, q: q,
		useSuffix:     cfg.UseSuffix,
		simplifyState: cfg.SimplifyState,
	}
}

// Rebind retargets the environment at a new data trajectory against the
// same measure and query, reusing the prefix stream and, with suf == nil,
// rederiving suffix distances in place. A non-nil suf supplies them
// precomputed (len == t.Len(), e.g. via sim.SuffixDistsInto over a
// reversed scratch copy of t); either way Explored accounts for them exactly as a fresh
// NewSplitEnv would, so results stay comparable across the two paths. The
// caller keeps ownership of suf until the next Rebind or Reset.
func (e *SplitEnv) Rebind(t traj.Trajectory, suf []float64) {
	e.t = t
	e.suf = suf
	e.Reset()
	if e.useSuffix && suf != nil {
		e.explored += t.Len()
	}
}

// StateDim returns the state vector width: 3 with the suffix component,
// 2 without.
func (e *SplitEnv) StateDim() int { return StateDim(e.useSuffix) }

// StateDim returns the MDP state width for the given suffix setting.
func StateDim(useSuffix bool) int {
	if useSuffix {
		return 3
	}
	return 2
}

// State returns the current state vector (Θbest, Θpre[, Θsuf]).
func (e *SplitEnv) State() []float64 {
	return e.StateInto(make([]float64, e.StateDim()))
}

// StateInto writes the current state vector (Θbest, Θpre[, Θsuf]) into dst,
// which must hold at least StateDim values, and returns dst truncated to
// the state width. It is the zero-allocation form of State for the serving
// hot path, where a state is produced per scanned point.
func (e *SplitEnv) StateInto(dst []float64) []float64 {
	dst = dst[:e.StateDim()]
	dst[0] = bestSim(e.dBest)
	dst[1] = sim.Sim(e.dPre)
	if e.useSuffix {
		dst[2] = sim.Sim(e.suf[e.pos])
	}
	return dst
}

// bestSim maps the best distance to Θbest, with the paper's initial value 0
// when nothing has been recorded yet.
func bestSim(d float64) float64 {
	if math.IsInf(d, 1) {
		return 0
	}
	return sim.Sim(d)
}

// NumActions returns 2 + k for skip parameter k.
func (e *SplitEnv) NumActions(k int) int { return 2 + k }

// Done reports whether the episode has ended (the last point was acted on).
func (e *SplitEnv) Done() bool { return e.done }

// Best returns the best interval and its tracked distance.
func (e *SplitEnv) Best() (traj.Interval, float64) { return e.best, e.dBest }

// Explored returns the number of similarity evaluations performed.
func (e *SplitEnv) Explored() int { return e.explored }

// Pos returns the index of the point currently scanned.
func (e *SplitEnv) Pos() int { return e.pos }

// Scanned returns the number of data points whose prefix state the walk
// advanced — the complement of the points a skip policy jumped over (the
// paper's "Skip Pts" accounting, Table 5). Intermediate points streamed to
// maintain unsimplified state do not count: they were examined, but the
// policy never acted on them, matching SkippedFraction's historical
// definition.
func (e *SplitEnv) Scanned() int { return e.scanned }

// Step applies an action at the current point and advances the scan,
// returning the reward (the increase of Θbest, §5.1). Action semantics:
// 0 = no split, 1 = split at the current point, 1+j = skip j points.
// Calling Step after the episode is done panics.
func (e *SplitEnv) Step(action int) float64 {
	prevBest := bestSim(e.dBest)
	e.advance(action)
	return bestSim(e.dBest) - prevBest
}

// advance is Step without the reward computation: the serving paths take
// greedy actions and never read rewards, so they skip the two extra Θbest
// conversions per scanned point that training needs.
func (e *SplitEnv) advance(action int) {
	if e.done {
		panic("rl: Step on finished episode")
	}
	n := e.t.Len()

	// candidate subtrajectories visible in the current state (line 14 of
	// Algorithm 3): the running prefix T[h,pos] and, when enabled, the
	// suffix T[pos, n-1]
	if e.dPre < e.dBest {
		e.dBest = e.dPre
		e.best = traj.Interval{I: e.h, J: e.pos}
	}
	if e.useSuffix && e.suf[e.pos] < e.dBest {
		e.dBest = e.suf[e.pos]
		e.best = traj.Interval{I: e.pos, J: n - 1}
	}

	split := action == 1
	skip := 0
	if action >= 2 {
		skip = action - 1
	}
	if split {
		e.h = e.pos + 1
	}

	next := e.pos + 1 + skip
	if next > n-1 {
		if e.pos+1 > n-1 {
			e.done = true
			return
		}
		next = n - 1 // a skip never jumps past the final point unscanned
	}

	// maintain the prefix similarity for the next scanned point
	if split && e.h == next {
		// fresh segment starting at the next point
		e.stream.Reset()
	} else if split {
		// split followed by a skip: the new segment starts at h but the
		// next scanned point is past it; stream the intermediate points
		// unless the state is simplified
		e.stream.Reset()
		if !e.simplifyState {
			for i := e.h; i < next; i++ {
				e.stream.Push(e.t.Pt(i))
				e.explored++
			}
		}
	} else if skip > 0 && !e.simplifyState {
		for i := e.pos + 1; i < next; i++ {
			e.stream.Push(e.t.Pt(i))
			e.explored++
		}
	}
	e.dPre = e.stream.Push(e.t.Pt(next))
	e.explored++
	e.scanned++
	e.pos = next
}

// WalkTable drives the episode to completion with greedy actions served
// from the compiled table, fused into one loop: the state components are
// quantized straight into the table's grid (the same cell mapping
// TablePolicy.Action applies, so the action sequence is identical to
// walking a tableActor) with no per-step actor dispatch and no reward
// bookkeeping. The Θbest cell is recomputed only when the best distance
// improves, which it does at most a handful of times per episode. This is
// the serving fast path for table-backed searches: both the one-shot and
// the scan paths run it.
func (e *SplitEnv) WalkTable(tb *TablePolicy) {
	res := tb.Resolution
	n := e.t.Len()
	dPrev := math.NaN() // != any distance, so the first step computes the cell
	c0 := 0
	if e.useSuffix {
		for !e.done {
			if e.dBest != dPrev {
				dPrev = e.dBest
				c0 = tb.cell(bestSim(dPrev)) * res
			}
			idx := (c0+tb.cell(sim.Sim(e.dPre)))*res + tb.cell(sim.Sim(e.suf[e.pos]))
			if a := int(tb.Actions[idx]); a != 0 || e.pos+1 >= n {
				e.advance(a)
				continue
			}
			// no-split mid-scan, by far the most frequent step: advance's
			// action-0 path inlined (record the visible candidates, push
			// the next point)
			if e.dPre < e.dBest {
				e.dBest = e.dPre
				e.best = traj.Interval{I: e.h, J: e.pos}
			}
			if e.suf[e.pos] < e.dBest {
				e.dBest = e.suf[e.pos]
				e.best = traj.Interval{I: e.pos, J: n - 1}
			}
			e.pos++
			e.dPre = e.stream.Push(e.t.Pt(e.pos))
			e.explored++
			e.scanned++
		}
		return
	}
	for !e.done {
		if e.dBest != dPrev {
			dPrev = e.dBest
			c0 = tb.cell(bestSim(dPrev)) * res
		}
		if a := int(tb.Actions[c0+tb.cell(sim.Sim(e.dPre))]); a != 0 || e.pos+1 >= n {
			e.advance(a)
			continue
		}
		if e.dPre < e.dBest {
			e.dBest = e.dPre
			e.best = traj.Interval{I: e.h, J: e.pos}
		}
		e.pos++
		e.dPre = e.stream.Push(e.t.Pt(e.pos))
		e.explored++
		e.scanned++
	}
}

// FinishGreedy consumes the rest of the episode taking "no split" actions;
// used by tests and by baselines that stop deciding.
func (e *SplitEnv) FinishGreedy() {
	for !e.done {
		e.Step(0)
	}
}
