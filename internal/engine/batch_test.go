package engine

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"simsub/internal/core"
	"simsub/internal/nn"
	"simsub/internal/rl"
)

// statePolicy builds a policy with random (DQN-initialization) weights, so
// its actions depend on the state and walks genuinely diverge.
func statePolicy(seed int64, k int, useSuffix, simplify bool) *rl.Policy {
	dim := rl.StateDim(useSuffix)
	net := nn.NewMLP([]int{dim, 8, 2 + k}, []nn.Activation{nn.ReLU, nn.Sigmoid}, rand.New(rand.NewSource(seed)))
	return &rl.Policy{Net: net, K: k, UseSuffix: useSuffix, SimplifyState: simplify}
}

// TestEngineBatchedMatchesSequential is the serving-level equivalence
// matrix of the learned searches: the engine's scatter over shard scans
// must return the same ranking as the flat, sequential direct reference,
// across shard counts and policy kinds.
func TestEngineBatchedMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	ts := randSet(rng, 60)
	q := randTraj(rng, 6)
	for _, tc := range []struct {
		algo   string
		policy *rl.Policy
	}{
		{"rls", statePolicy(1, 0, true, false)},
		{"rls-skip", statePolicy(2, 3, true, true)},
		{"rls-skip", statePolicy(3, 3, false, true)},
	} {
		want := directRLS(ts, core.RLS{M: mustMeasure(t, "dtw"), Policy: tc.policy}, q, 10)
		for _, shards := range []int{1, 3} {
			e := New(Config{Shards: shards, Index: ScanAll})
			e.Add(ts)
			if _, err := e.SetPolicy(tc.policy); err != nil {
				t.Fatal(err)
			}
			got, _, err := e.TopK(context.Background(), Query{
				Q: q, K: 10, Measure: "dtw", Algorithm: tc.algo,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !matchesEqual(got, want) {
				t.Fatalf("%s shards=%d: served ranking diverges from direct reference\ngot  %+v\nwant %+v",
					tc.algo, shards, got, want)
			}
		}
	}
}

// TestSetPolicyCompiledServesTable registers a compiled table policy and
// checks the whole serving contract: the info and stats surfaces report the
// table, queries answer through it byte-identically to a direct table-backed
// search, and compiling (or recompiling) shifts the serving fingerprint so
// cached network-path rankings cannot be served from the table path.
func TestSetPolicyCompiledServesTable(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	ts := randSet(rng, 40)
	q := randTraj(rng, 5)
	p := statePolicy(4, 2, true, true)
	e := New(Config{Shards: 2, Index: ScanAll, CacheSize: 32})
	e.Add(ts)

	plain, err := e.SetPolicy(p)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Compiled || plain.CompiledFingerprint != "" {
		t.Fatalf("uncompiled registration reports a table: %+v", plain)
	}
	spec := Query{Q: q, K: 8, Measure: "dtw", Algorithm: "rls-skip"}
	if _, cached, err := e.TopK(context.Background(), spec); err != nil || cached {
		t.Fatalf("first query: cached=%v err=%v", cached, err)
	}
	if _, cached, err := e.TopK(context.Background(), spec); err != nil || !cached {
		t.Fatalf("repeat query: cached=%v err=%v, want a cache hit", cached, err)
	}

	info, err := e.SetPolicyCompiled(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Compiled || info.CompileResolution != 8 || info.CompiledFingerprint == "" {
		t.Fatalf("compiled registration info = %+v", info)
	}
	if info.Fingerprint == plain.Fingerprint {
		t.Fatal("compiling the table did not change the serving fingerprint")
	}
	st := e.Stats()
	if !st.PolicyCompiled || st.PolicyCompileResolution != 8 ||
		st.PolicyCompiledFingerprint != info.CompiledFingerprint ||
		st.PolicyCompileDivergence != info.CompileDivergence {
		t.Fatalf("stats do not mirror the compiled registration: %+v", st)
	}

	// the network-path cache entry is unreachable now: the query recomputes
	// through the table and matches a direct table-backed search
	got, cached, err := e.TopK(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("post-compile query served a network-path ranking from cache")
	}
	table, err := rl.Compile(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := directRLS(ts, core.RLS{M: mustMeasure(t, "dtw"), Policy: p, Table: table}, q, 8)
	if !matchesEqual(got, want) {
		t.Fatalf("table-served ranking diverges from direct table search\ngot  %+v\nwant %+v", got, want)
	}

	// recompiling at another resolution moves the fingerprint again
	re, err := e.SetPolicyCompiled(p, 16)
	if err != nil {
		t.Fatal(err)
	}
	if re.Fingerprint == info.Fingerprint {
		t.Fatal("recompiling at another resolution kept the serving fingerprint")
	}
	// and a failed compile leaves the current registration untouched
	if _, err := e.SetPolicyCompiled(p, 1); err == nil {
		t.Fatal("resolution below the minimum compiled")
	} else {
		wantInvalidArgument(t, err, "resolution below minimum")
	}
	if cur, ok := e.Policy(); !ok || cur != re {
		t.Fatalf("failed compile disturbed the registration: %+v ok=%v", cur, ok)
	}
}

// TestConcurrentCompiledPolicySwap hammers queries against swaps
// that alternate the same policy between network and compiled-table serving:
// every ranking must equal the policy's direct answer (the table is exact
// for a constant policy), with no races under -race.
func TestConcurrentCompiledPolicySwap(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	ts := randSet(rng, 30)
	q := randTraj(rng, 5)
	e := New(Config{Shards: 2, Index: ScanAll, CacheSize: 32})
	e.Add(ts)

	pols := []*rl.Policy{testPolicy(0, 0, true, false), testPolicy(1, 0, true, false)}
	m := mustMeasure(t, "dtw")
	wants := make([][]Match, len(pols))
	for i, p := range pols {
		wants[i] = directRLS(ts, core.RLS{M: m, Policy: p}, q, 5)
	}
	if _, err := e.SetPolicy(pols[0]); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// alternate policy AND serving mode: table one round, network
			// the next (a constant policy's table is exact, so the answer
			// set stays two-valued)
			res := 0
			if i%2 == 0 {
				res = 8
			}
			if _, err := e.SetPolicyCompiled(pols[i%2], res); err != nil {
				t.Errorf("swap: %v", err)
				return
			}
		}
	}()
	var queriers sync.WaitGroup
	for w := 0; w < 4; w++ {
		queriers.Add(1)
		go func() {
			defer queriers.Done()
			for i := 0; i < 50; i++ {
				got, _, err := e.TopK(context.Background(), Query{Q: q, K: 5, Measure: "dtw", Algorithm: "rls"})
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				if !matchesEqual(got, wants[0]) && !matchesEqual(got, wants[1]) {
					t.Errorf("ranking matches neither policy: %+v", got)
					return
				}
			}
		}()
	}
	queriers.Wait()
	close(stop)
	swapper.Wait()
}
