package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"simsub/api"
	"simsub/internal/core"
	"simsub/internal/rl"
	"simsub/internal/t2vec"
	"simsub/internal/traj"
)

// TestResolutionMatrix resolves every row of the api registration table
// under every registry state and under measures dtw and t2vec, through
// both entry points: a row resolves if and only if the artifacts its
// columns and its measure name are registered and of the right kind, and
// fails as a typed invalid_argument otherwise. Measure t2vec is the
// registered encoder itself, whichever algorithm scores with it. A new
// registration joins the matrix without a test edit.
func TestResolutionMatrix(t *testing.T) {
	split, skip := testPolicy(0, 0, true, false), testPolicy(2, 2, false, true)
	enc := t2vec.NewRandomModel(8, 1)
	states := []struct {
		name   string
		policy *rl.Policy
		enc    *t2vec.Model
	}{
		{"none", nil, nil},
		{"split", split, nil},
		{"skip", skip, nil},
		{"encoder", nil, enc},
		{"both", skip, enc},
	}
	for _, st := range states {
		e := New(Config{Shards: 1})
		if st.policy != nil {
			if _, err := e.SetPolicy(st.policy); err != nil {
				t.Fatal(err)
			}
		}
		if st.enc != nil {
			if _, err := e.SetEncoder(st.enc); err != nil {
				t.Fatal(err)
			}
		}
		for _, row := range api.Algorithms() {
			measures := []string{"dtw", "t2vec"}
			if row.Measure != "" {
				measures = []string{row.Measure}
			}
			for _, measure := range measures {
				other := "frechet"
				if measure == other {
					other = "dtw"
				}
				needsArtifact := row.NeedsPolicy || row.NeedsEncoder || measure == "t2vec"
				want := (!row.NeedsPolicy || st.policy != nil && (st.policy.K > 0) == (row.Name == "rls-skip")) &&
					(!row.NeedsEncoder && measure != "t2vec" || st.enc != nil)
				for _, name := range append([]string{row.Name}, row.Aliases...) {
					where := st.name + "/" + measure + "/" + name
					q := Query{Measure: measure, Algorithm: name}
					got, err := e.Resolve(q)
					if want != (err == nil) {
						t.Fatalf("%s: Engine.Resolve err = %v, want resolved=%v", where, err, want)
					}
					if err != nil {
						wantInvalidArgument(t, err, where+" Engine.Resolve")
					}
					direct, derr := ResolveQuery(measure, name, Params{})
					if needsArtifact {
						wantInvalidArgument(t, derr, where+" ResolveQuery")
					} else if derr != nil || !reflect.DeepEqual(direct, got) {
						t.Fatalf("%s: ResolveQuery = %#v, %v; Engine.Resolve = %#v", where, direct, derr, got)
					}
					if err == nil && row.NeedsPolicy && got.(core.RLS).Policy != st.policy {
						t.Fatalf("%s: resolved RLS does not bind the registered policy", where)
					}
					if err == nil && measure == "t2vec" && boundModel(got) != enc {
						t.Fatalf("%s: resolved %T scores with %v, not the registered encoder", where, got, boundModel(got))
					}

					// a row's parameter resolves only on its own row
					q.Params = Params{POSDelay: 3}
					if _, err := e.Resolve(q); (err == nil) != (want && row.Param == "pos_delay") {
						t.Fatalf("%s: pos_delay resolution err = %v", where, err)
					}
					// measure pinning holds through both entry points
					if row.Measure != "" {
						q = Query{Measure: other, Algorithm: name}
						_, err := e.Resolve(q)
						wantInvalidArgument(t, err, where+" under "+other)
						_, err = ResolveQuery(other, name, Params{})
						wantInvalidArgument(t, err, where+" ResolveQuery under "+other)
					}
				}
			}
		}
	}
}

// boundModel is the measure a resolved algorithm scores with: its M field,
// or EmbedRank's encoder E.
func boundModel(alg core.Algorithm) any {
	if r, ok := alg.(core.EmbedRank); ok {
		return r.E
	}
	return reflect.ValueOf(alg).FieldByName("M").Interface()
}

// TestT2vecScoresWithRegisteredEncoder: an engine query under measure
// t2vec is the flat database's scan over the registered encoder itself,
// rank for rank and bit for bit, for the exact search and a splitting one.
func TestT2vecScoresWithRegisteredEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ts := randSet(rng, 40)
	q := randTraj(rng, 6)
	enc := t2vec.NewRandomModel(8, 5)
	for name, alg := range map[string]core.Algorithm{"exacts": core.ExactS{M: enc}, "pss": core.PSS{M: enc}} {
		for _, kind := range []IndexKind{ScanAll, RTree} {
			want, err := core.NewDatabase(ts, kind == RTree).TopKPrunedCtx(context.Background(), alg, q, 10, nil, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{1, 3} {
				e := New(Config{Shards: shards, Index: kind})
				if _, err := e.SetEncoder(enc); err != nil {
					t.Fatal(err)
				}
				if _, err := e.Add(ts); err != nil {
					t.Fatal(err)
				}
				got, _, err := e.TopK(context.Background(), Query{Q: q, K: 10, Measure: "t2vec", Algorithm: name})
				if err != nil {
					t.Fatal(err)
				}
				if len(want) == 0 || len(got) != len(want) {
					t.Fatalf("%s shards=%d kind=%d: %d matches, want %d (> 0)", name, shards, kind, len(got), len(want))
				}
				for i := range want {
					g, w := got[i], want[i]
					if g.TrajID != w.TrajIndex || g.Result != w.Result ||
						math.Float64bits(g.Result.Dist) != math.Float64bits(w.Result.Dist) {
						t.Errorf("%s shards=%d kind=%d rank %d: got {%d %+v}, want {%d %+v}",
							name, shards, kind, i, g.TrajID, g.Result, w.TrajIndex, w.Result)
					}
				}
			}
		}
	}
}

// TestT2vecConcurrentQueries runs t2vec/pss queries with distinct query
// trajectories from many goroutines (under -race in CI) and checks each
// against its serial ranking: every t2vec query shares the registered
// model, and with it its single-entry query-embedding cache.
func TestT2vecConcurrentQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	e := New(Config{Shards: 4, Workers: 4, Index: ScanAll})
	if _, err := e.SetEncoder(t2vec.NewRandomModel(8, 6)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Add(randSet(rng, 50)); err != nil {
		t.Fatal(err)
	}
	query := func(q traj.Trajectory) ([]Match, error) {
		ms, _, err := e.TopK(context.Background(), Query{Q: q, K: 5, Measure: "t2vec", Algorithm: "pss"})
		return ms, err
	}
	queries := make([]traj.Trajectory, 8)
	serial := make([][]Match, len(queries))
	for i := range queries {
		queries[i] = randTraj(rng, 5)
		ms, err := query(queries[i])
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = ms
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				i := (g + rep) % len(queries)
				got, err := query(queries[i])
				if err != nil {
					errs <- err.Error()
					return
				}
				if !reflect.DeepEqual(got, serial[i]) {
					errs <- fmt.Sprintf("query %d: concurrent ranking %v, serial %v", i, got, serial[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// TestServedCountersCountAnsweringPlan pins rls_queries to the plan that
// answered: a learned query rejected before its scan does not count, and
// an exact query degraded onto the learned search does.
func TestServedCountersCountAnsweringPlan(t *testing.T) {
	skipEngine := func() *Engine {
		e := New(Config{Shards: 2, QualitySample: 1})
		if _, err := e.Add(randSet(rand.New(rand.NewSource(7)), 30)); err != nil {
			t.Fatal(err)
		}
		if _, err := e.SetPolicy(testPolicy(2, 1, false, true)); err != nil {
			t.Fatal(err)
		}
		return e
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	q := Query{Q: randTraj(rand.New(rand.NewSource(2)), 5), K: 3, Measure: "dtw", Algorithm: "rls-skip"}

	e := skipEngine()
	forceCost(e, "dtw", "rls-skip", time.Second)
	_, _, err := e.TopK(ctx, q)
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeDeadlineExceeded {
		t.Fatalf("got %v, want typed deadline_exceeded", err)
	}
	if got := e.Stats().RLSQueries; got != 0 {
		t.Errorf("rejected rls-skip query: RLSQueries = %d, want 0", got)
	}

	e = skipEngine()
	forceCost(e, "dtw", "exacts", time.Second)
	forceCost(e, "dtw", "pss", time.Second)
	q.Algorithm, q.AllowDegraded = "exacts", true
	_, _, _, deg, err := e.topK(ctx, q, nil)
	if err != nil {
		t.Fatalf("topK: %v", err)
	}
	if deg == nil || deg.To != "rls-skip" {
		t.Fatalf("Degraded = %+v, want budget exacts->rls-skip", deg)
	}
	if st := e.Stats(); st.RLSQueries != 1 || st.QualitySamples != 1 {
		t.Errorf("degraded onto rls-skip: RLSQueries = %d, QualitySamples = %d, want 1 and 1", st.RLSQueries, st.QualitySamples)
	}
}
