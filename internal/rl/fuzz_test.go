package rl

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"simsub/internal/sim"
	"simsub/internal/traj"
)

// FuzzPolicyLoad feeds arbitrary bytes to Load, the decoder behind
// -policy files and POST /v2/admin/policy. Whatever it returns must not
// panic, and a policy it accepts must walk a short trajectory pair to a
// finite best distance with in-range actions only.
func FuzzPolicyLoad(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	data := []traj.Trajectory{randTraj(rng, 10), randTraj(rng, 12)}
	queries := []traj.Trajectory{randTraj(rng, 3), randTraj(rng, 4)}
	for _, cfg := range []Config{
		{Episodes: 4, Seed: 1, Hidden: 4, UseSuffix: true},
		{Episodes: 4, Seed: 2, Hidden: 4, K: 2, UseSuffix: true, SimplifyState: true},
	} {
		p, _, err := Train(data, queries, sim.DTW{}, cfg)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := p.Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("rlspolicy 0 1 0\n"))
	tr, q := randTraj(rng, 9), randTraj(rng, 3)
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := Load(bytes.NewReader(b))
		if err != nil {
			if p != nil {
				t.Fatalf("Load returned a policy with error %v", err)
			}
			return
		}
		env := NewSplitEnv(sim.DTW{}, tr, q, EnvConfig{UseSuffix: p.UseSuffix, SimplifyState: p.SimplifyState})
		for steps := 0; !env.Done(); steps++ {
			if steps > tr.Len() {
				t.Fatalf("walk of a %d-point trajectory did not end", tr.Len())
			}
			a := p.Action(env.State())
			if a < 0 || a >= p.NumActions() {
				t.Fatalf("action %d outside [0, %d)", a, p.NumActions())
			}
			env.Step(a)
		}
		if _, d := env.Best(); math.IsNaN(d) || math.IsInf(d, 0) {
			t.Fatalf("walk ended at distance %v", d)
		}
	})
}
