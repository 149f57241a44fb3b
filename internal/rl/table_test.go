package rl

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"simsub/internal/nn"
	"simsub/internal/sim"
)

// randomPolicy builds a policy with the DQN's random weight initialization:
// its actions vary with the state, so walks and compiled tables are
// exercised far harder than by a constant policy.
func randomPolicy(seed int64, k int, useSuffix, simplify bool) *Policy {
	dim := StateDim(useSuffix)
	net := nn.NewMLP([]int{dim, 8, 2 + k}, []nn.Activation{nn.ReLU, nn.Sigmoid}, rand.New(rand.NewSource(seed)))
	return &Policy{Net: net, K: k, UseSuffix: useSuffix, SimplifyState: simplify}
}

func TestStateIntoMatchesState(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, cfg := range []EnvConfig{{UseSuffix: true}, {UseSuffix: false}, {UseSuffix: true, SimplifyState: true}} {
		env := NewSplitEnv(sim.DTW{}, randTraj(rng, 15), randTraj(rng, 4), cfg)
		var dst [3]float64
		for !env.Done() {
			got := env.StateInto(dst[:])
			want := env.State()
			if len(got) != len(want) {
				t.Fatalf("cfg %+v: StateInto len %d != State len %d", cfg, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("cfg %+v comp %d: StateInto %v != State %v", cfg, i, got[i], want[i])
				}
			}
			env.Step(rng.Intn(2))
		}
	}
}

func TestRebindMatchesFreshEnv(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := sim.DTW{}
	q := randTraj(rng, 4)
	qRev := q.Reverse()
	for _, cfg := range []EnvConfig{{UseSuffix: true}, {UseSuffix: false}, {UseSuffix: true, SimplifyState: true}} {
		reused := NewScanEnv(m, q, cfg)
		var suf []float64
		for trial := 0; trial < 10; trial++ {
			c := randTraj(rng, rng.Intn(12)+1)
			if cfg.UseSuffix {
				suf = sim.SuffixDistsInto(suf, m, c.Reverse(), qRev)
				reused.Rebind(c, suf)
			} else {
				reused.Rebind(c, nil)
			}
			fresh := NewSplitEnv(m, c, q, cfg)
			actions := make([]int, 0, 16)
			for !fresh.Done() {
				a := rng.Intn(3)
				actions = append(actions, a)
				fresh.Step(a)
			}
			for _, a := range actions {
				reused.Step(a)
			}
			if !reused.Done() {
				t.Fatalf("cfg %+v: rebound env not done after the fresh env's action sequence", cfg)
			}
			fi, fd := fresh.Best()
			ri, rd := reused.Best()
			if fi != ri || fd != rd || fresh.Explored() != reused.Explored() || fresh.Scanned() != reused.Scanned() {
				t.Fatalf("cfg %+v trial %d: rebound (%v, %v, %d, %d) != fresh (%v, %v, %d, %d)",
					cfg, trial, ri, rd, reused.Explored(), reused.Scanned(), fi, fd, fresh.Explored(), fresh.Scanned())
			}
		}
	}
}

func TestCompileTableMatchesNetworkAtCenters(t *testing.T) {
	p := randomPolicy(11, 2, true, true)
	table, err := Compile(p, 8)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if table.K != p.K || table.UseSuffix != p.UseSuffix || table.SimplifyState != p.SimplifyState {
		t.Fatalf("table shape %+v does not mirror policy", table)
	}
	// every cell center must agree with the network by construction
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		state := make([]float64, table.StateDim())
		for d := range state {
			cell := rng.Intn(8)
			state[d] = (float64(cell) + 0.5) / 8
		}
		if got, want := table.Action(state), p.Action(state); got != want {
			t.Fatalf("center %v: table action %d != network action %d", state, got, want)
		}
	}
	if table.Divergence < 0 || table.Divergence > 1 {
		t.Fatalf("divergence %v outside [0, 1]", table.Divergence)
	}
}

func TestCompileConstantPolicyZeroDivergence(t *testing.T) {
	// a constant policy's greedy surface is flat: every probe agrees
	table, err := Compile(constantPolicy(1, 2, true), 4)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if table.Divergence != 0 {
		t.Fatalf("constant policy compiled with divergence %v, want 0", table.Divergence)
	}
	for i, a := range table.Actions {
		if a != 1 {
			t.Fatalf("cell %d holds action %d, want 1", i, a)
		}
	}
}

func TestCompileRefusals(t *testing.T) {
	p := randomPolicy(13, 0, true, false)
	cases := []struct {
		name string
		p    *Policy
		res  int
	}{
		{"nil policy", nil, 8},
		{"resolution below minimum", p, 1},
		{"grid too large", p, 1 << 10}, // (2^10)^3 cells > MaxTableCells
	}
	for _, c := range cases {
		_, err := Compile(c.p, c.res)
		var perr *PolicyError
		if err == nil || !errors.As(err, &perr) {
			t.Fatalf("%s: Compile err = %v, want *PolicyError", c.name, err)
		}
	}
	// non-finite weights are refused through Validate
	bad := randomPolicy(14, 0, false, false)
	bad.Net.Layers[0].W.W[0] = math.NaN()
	if _, err := Compile(bad, 8); err == nil {
		t.Fatal("Compile accepted a NaN-weight policy")
	}
}

func TestTableActionClampsHostileStates(t *testing.T) {
	table, err := Compile(randomPolicy(15, 1, true, true), 4)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	na := table.NumActions()
	for _, state := range [][]float64{
		{math.NaN(), 0.5, 0.5},
		{-1, 2, 0.5},
		{math.Inf(1), math.Inf(-1), math.NaN()},
		{1, 1, 1},
	} {
		a := table.Action(state)
		if a < 0 || a >= na {
			t.Fatalf("state %v: action %d outside [0, %d)", state, a, na)
		}
	}
}

func TestTableFingerprintSensitivity(t *testing.T) {
	p := randomPolicy(16, 2, true, true)
	t1, err := Compile(p, 8)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	t2, err := Compile(p, 8)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if t1.Fingerprint() != t2.Fingerprint() {
		t.Fatal("identical compiles produced different fingerprints")
	}
	t3, err := Compile(p, 16)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if t1.Fingerprint() == t3.Fingerprint() {
		t.Fatal("different resolutions share a fingerprint")
	}
	mut := *t1
	mut.Actions = append([]uint8(nil), t1.Actions...)
	mut.Actions[0] ^= 1
	if mut.Fingerprint() == t1.Fingerprint() {
		t.Fatal("flipping a cell action did not change the fingerprint")
	}
}

// TestWalkTableMatchesActorWalk pins the fused table walk to the
// actor-driven reference: for state-dependent tables of every MDP shape,
// WalkTable must take exactly the action sequence a tableActor would, so
// the walks agree on everything they report.
func TestWalkTableMatchesActorWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	m := sim.DTW{}
	for pi, p := range []*Policy{
		randomPolicy(11, 0, true, false),
		randomPolicy(12, 3, true, false),
		randomPolicy(13, 3, true, true),
		randomPolicy(14, 3, false, true),
	} {
		table, err := Compile(p, 8)
		if err != nil {
			t.Fatalf("policy %d: Compile: %v", pi, err)
		}
		q := randTraj(rng, 5)
		cfg := EnvConfig{UseSuffix: p.UseSuffix, SimplifyState: p.SimplifyState}
		for i := 0; i < 20; i++ {
			c := randTraj(rng, rng.Intn(25)+1)

			ref := NewSplitEnv(m, c, q, cfg)
			actor := table.NewActor()
			state := make([]float64, ref.StateDim())
			action := make([]int, 1)
			for !ref.Done() {
				ref.StateInto(state)
				actor.Actions(state, 1, action)
				ref.Step(action[0])
			}
			actor.Release()

			fused := NewSplitEnv(m, c, q, cfg)
			fused.WalkTable(table)

			ivRef, dRef := ref.Best()
			ivFus, dFus := fused.Best()
			if ivRef != ivFus || dRef != dFus ||
				ref.Explored() != fused.Explored() || ref.Scanned() != fused.Scanned() {
				t.Fatalf("policy %d cand %d: fused walk (%v, %v, %d, %d) != actor walk (%v, %v, %d, %d)",
					pi, i, ivFus, dFus, fused.Explored(), fused.Scanned(),
					ivRef, dRef, ref.Explored(), ref.Scanned())
			}
		}
	}
}
