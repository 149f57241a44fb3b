package core

import (
	"math"

	"simsub/internal/rl"
	"simsub/internal/sim"
	"simsub/internal/traj"
)

// RLS is the reinforcement-learning based search (§5.3): a splitting-based
// search that drives the split decisions with a DQN-learned policy instead
// of PSS's hand-crafted heuristic. When the policy was trained with skip
// actions (K > 0) the same type realizes RLS-Skip (§5.4); the paper's
// RLS-Skip+ is a K > 0 policy trained with UseSuffix = false.
//
// Time complexity matches PSS: O(n1·Φini + n·Φinc), with the O(1) policy
// network evaluation replacing PSS's comparisons; skipping reduces the
// constant further by not maintaining state at skipped points.
type RLS struct {
	M      sim.Measure
	Policy *rl.Policy
	// Table, when non-nil, serves actions from a compiled table policy
	// (rl.Compile) instead of the network: an O(1) array lookup per
	// decision. The table carries its own MDP shape, which takes
	// precedence over Policy's, so a table-only RLS is valid; when both
	// are set the caller (the engine's policy registry) is responsible
	// for the table having been compiled from this policy.
	Table *rl.TablePolicy
}

// params resolves the MDP shape the search walks: the table's when one is
// installed, else the policy's. ok is false when neither source is usable.
func (a RLS) params() (k int, useSuffix, simplify, ok bool) {
	switch {
	case a.Table != nil:
		return a.Table.K, a.Table.UseSuffix, a.Table.SimplifyState, true
	case a.Policy != nil && a.Policy.Net != nil:
		return a.Policy.K, a.Policy.UseSuffix, a.Policy.SimplifyState, true
	}
	return 0, false, false, false
}

// src returns the action source matching params.
func (a RLS) src() rl.ActorSource {
	if a.Table != nil {
		return a.Table
	}
	return a.Policy
}

// Name implements Algorithm: "RLS" for split-only policies, "RLS-Skip" for
// policies with skip actions, with a "+" suffix when Θsuf is dropped.
func (a RLS) Name() string {
	name := "RLS"
	if k, useSuffix, _, ok := a.params(); ok && k > 0 {
		name = "RLS-Skip"
		if !useSuffix {
			name += "+"
		}
	}
	return name
}

// Search implements Algorithm: it walks the splitting MDP taking greedy
// actions and returns the best subtrajectory the walk exposes. A missing
// policy or an empty trajectory on either side yields the empty result
// (infinite distance, zero interval) instead of panicking, matching
// ExactS's behavior on an empty data trajectory.
func (a RLS) Search(t, q traj.Trajectory) Result {
	_, useSuffix, simplify, ok := a.params()
	if !ok || t.Len() == 0 || q.Len() == 0 {
		return Result{Dist: math.Inf(1)}
	}
	env := rl.NewSplitEnv(a.M, t, q, rl.EnvConfig{
		UseSuffix:     useSuffix,
		SimplifyState: simplify,
	})
	if a.Table != nil {
		env.WalkTable(a.Table)
	} else {
		actor := a.src().NewActor()
		defer actor.Release()
		walk(env, actor)
	}
	return walkResult(env, a.M, t, q, simplify)
}

// walkResult reads a finished walk's answer. A simplified-state walk
// tracks distances that ignore skipped points and can undercut even the
// exact optimum, so its winning interval is re-scored with the measure
// once: every reported distance is the measure value of its interval.
func walkResult(env *rl.SplitEnv, m sim.Measure, t, q traj.Trajectory, simplify bool) Result {
	iv, d := env.Best()
	r := Result{Interval: iv, Dist: d, Explored: env.Explored(), Scanned: env.Scanned()}
	if simplify {
		r.Dist = ExactDist(m, t, q, r)
	}
	return r
}

// walk drives one environment to completion with greedy actions, without
// allocating per step.
func walk(env *rl.SplitEnv, actor rl.Actor) {
	var state [3]float64
	var action [1]int
	dim := env.StateDim()
	for !env.Done() {
		env.StateInto(state[:dim])
		actor.Actions(state[:dim], 1, action[:])
		env.Step(action[0])
	}
}

// NewThresholdSearch implements ThresholdSearcher for the learned searches.
// Every interval a walk reports is a genuine subtrajectory carrying its
// measure value (see walkResult), so — exactly as for the split family —
// the cascade's bound is below anything the walk could report, and a
// candidate whose bound beats tau is skipped without touching the ranking.
//
// The per-query state mirrors splitThresholdSearch: PSS's suffixPass and
// suffix cascade, free-start gate included, when the policy reads Θsuf,
// plus one environment and one actor Rebind-ed at each candidate, so the
// sequential scan path performs no per-candidate allocation either.
// RLS-Skip+ walks one pass and stays ungated, as POS does.
func (a RLS) NewThresholdSearch(q traj.Trajectory) ThresholdSearch {
	s := &rlsThresholdSearch{m: a.M, q: q}
	_, useSuffix, simplify, ok := a.params()
	if !ok || q.Len() == 0 {
		return s // degenerate: every candidate reports an infinite distance
	}
	if useSuffix {
		s.suffixPass = &suffixPass{m: a.M, qRev: q.Reverse()}
		s.cascade = suffixCascadeFor(a.M, q)
	} else {
		s.cascade = cascadeFor(a.M, q)
	}
	s.simplify = simplify
	s.env = rl.NewScanEnv(a.M, q, rl.EnvConfig{UseSuffix: useSuffix, SimplifyState: simplify})
	if a.Table != nil {
		s.table = a.Table
	} else {
		s.actor = a.src().NewActor()
	}
	return s
}

type rlsThresholdSearch struct {
	cascade
	*suffixPass // nil unless the policy reads Θsuf
	m           sim.Measure
	q           traj.Trajectory
	simplify    bool // re-score the winning interval (see walkResult)
	env         *rl.SplitEnv
	table       *rl.TablePolicy // serve from the fused table walk when set
	actor       rl.Actor        // network actor otherwise
}

func (s *rlsThresholdSearch) Search(t traj.Trajectory, meta TrajMeta, tau float64) (Result, bool) {
	r := Result{Dist: math.Inf(1)}
	if s.env != nil && t.Len() > 0 {
		var suf []float64
		if s.suffixPass != nil {
			if s.beyond(t, tau) {
				return r, true
			}
			suf = s.dists(t)
		}
		s.env.Rebind(t, suf)
		if s.table != nil {
			s.env.WalkTable(s.table)
		} else {
			walk(s.env, s.actor)
		}
		r = walkResult(s.env, s.m, t, s.q, s.simplify)
	}
	return within(r, tau)
}

func (s *rlsThresholdSearch) Release() {
	if s.actor != nil {
		s.actor.Release()
	}
}

// SkippedFraction runs the policy over the pair and reports the fraction of
// data points never scanned (Table 5's "Skip Pts" column). A nil policy or
// an empty trajectory on either side skips nothing. Serving paths record
// the same count on Result.Scanned as a byproduct of the search walk;
// this re-walk exists for callers holding only a (policy, pair).
func SkippedFraction(m sim.Measure, p *rl.Policy, t, q traj.Trajectory) float64 {
	r := RLS{M: m, Policy: p}.Search(t, q)
	return skippedFractionOf(r.Scanned, t.Len())
}

// skippedFractionOf converts a walk's scanned-point count into the skipped
// fraction of an n-point trajectory; a zero count (non-walk result) or an
// empty trajectory skips nothing.
func skippedFractionOf(scanned, n int) float64 {
	if scanned <= 0 || n <= 0 || scanned >= n {
		return 0
	}
	return float64(n-scanned) / float64(n)
}
