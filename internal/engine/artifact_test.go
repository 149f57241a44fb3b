package engine

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"simsub/api"
	"simsub/internal/core"
	"simsub/internal/rl"
	"simsub/internal/t2vec"
)

// TestResolutionMatrix resolves every row of the api registration table
// under every registry state, through both entry points: a row resolves if
// and only if the artifacts its columns name are registered and of the
// right kind, and fails as a typed invalid_argument otherwise. A new
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
			measure := row.Measure
			if measure == "" {
				measure = "dtw"
			}
			other := "frechet"
			if measure == other {
				other = "dtw"
			}
			needsArtifact := row.NeedsPolicy || row.NeedsEncoder
			want := (!row.NeedsPolicy || st.policy != nil && (st.policy.K > 0) == (row.Name == "rls-skip")) &&
				(!row.NeedsEncoder || st.enc != nil)
			for _, name := range append([]string{row.Name}, row.Aliases...) {
				where := st.name + "/" + name
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
				if err == nil && row.NeedsEncoder && got.(core.EmbedRank).E != enc {
					t.Fatalf("%s: resolved EmbedRank does not bind the registered encoder", where)
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
