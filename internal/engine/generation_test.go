package engine

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"simsub/internal/rl"
	"simsub/internal/t2vec"
	"simsub/internal/traj"
)

// TestEveryAnswerFromOnePublishedGeneration runs readers through a stream
// of Adds interleaved with encoder and policy swaps (under -race in CI).
// Every batch carries k copies of the query, copy j on shard j mod shards,
// each slid a little less far along it than the batch before, so every Add
// moves the rankings on every shard at once. A reference engine replays the
// same stream serially and records every spec's answer in each generation
// it passes through. Every answer a reader gets must be the answer of one
// of those generations, and never of an older one than the reader has
// already seen: a ranking that mixes two shards' states, or one encoder's
// query vector with another's stored vectors, matches none of them.
func TestEveryAnswerFromOnePublishedGeneration(t *testing.T) {
	const (
		k    = 4
		adds = 40
	)
	q := traj.FromXY(0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0)
	encs := []*t2vec.Model{t2vec.NewRandomModel(8, 1), t2vec.NewRandomModel(8, 2)}
	pols := []*rl.Policy{statePolicy(1, 0, false, false), statePolicy(2, 0, false, false)}
	specs := []Query{
		{Q: q, K: k, Measure: "dtw", Algorithm: "exacts"},
		{Q: q, K: k, Measure: "frechet", Algorithm: "exacts"},
		{Q: q, K: k, Measure: "t2vec", Algorithm: "embed"},
		{Q: q, K: k, Measure: "dtw", Algorithm: "exacts", ANN: &ANNParams{Candidates: 3 * k, Probes: 2}},
		{Q: q, K: k, Measure: "dtw", Algorithm: "rls"},
	}
	for _, shards := range []int{1, 4} {
		batchSize := shards * 2 * k
		rng := rand.New(rand.NewSource(int64(shards)))
		// ops is the write stream; its first setup ops run before the
		// readers start
		ops := []func(*Engine) error{
			func(e *Engine) error { _, err := e.SetEncoder(encs[0]); return err },
			func(e *Engine) error { _, err := e.SetPolicy(pols[0]); return err },
		}
		for g := range adds {
			ts := make([]traj.Trajectory, batchSize)
			for i := range ts {
				if i < k {
					// slid along q by dx < 0.5 the copy still meets q's MBR:
					// closer with every batch, and within one in the order of i
					dx := (float64(adds-g) + float64(i)/(2*k)) / (2 * (adds + 1))
					ts[i] = q.Translate(dx, 0)
				} else {
					ts[i] = randTraj(rng, 8).Translate(500, 500)
				}
			}
			ops = append(ops, func(e *Engine) error { _, err := e.Add(ts); return err })
			switch {
			case g%7 == 3:
				enc := encs[(g/7+1)%2]
				ops = append(ops, func(e *Engine) error { _, err := e.SetEncoder(enc); return err })
			case g%5 == 1:
				pol := pols[(g/5+1)%2]
				ops = append(ops, func(e *Engine) error { _, err := e.SetPolicy(pol); return err })
			}
		}
		const setup = 3 // encoder, policy and the first batch: k copies to rank

		// answers[si] maps each answer of spec si to the generations, in
		// stream order, that give it
		answers := make([]map[string][]int, len(specs))
		for si := range answers {
			answers[si] = map[string][]int{}
		}
		ref := New(Config{Shards: shards})
		for i, op := range ops {
			if err := op(ref); err != nil {
				t.Fatal(err)
			}
			if i < setup-1 {
				continue
			}
			for si, spec := range specs {
				ms, _, err := ref.TopK(context.Background(), spec)
				if err != nil {
					t.Fatalf("shards=%d: reference after op %d, spec %d: %v", shards, i, si, err)
				}
				key := fmt.Sprint(ms)
				answers[si][key] = append(answers[si][key], i)
			}
		}

		// one query slot per reader: none queues, so admission never sheds
		e := New(Config{Shards: shards, CacheSize: 8, QuerySlots: len(specs)})
		for _, op := range ops[:setup] {
			if err := op(e); err != nil {
				t.Fatal(err)
			}
		}
		stop := make(chan struct{})
		var reads atomic.Int64
		var wg sync.WaitGroup
		for si, spec := range specs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				last, reported := 0, false
				report := func(format string, args ...any) {
					if !reported { // once per reader; it keeps reading so the writer never waits in vain
						t.Errorf("shards=%d %s/%s reader: "+format, append([]any{shards, spec.Measure, spec.Algorithm}, args...)...)
					}
					reported = true
				}
				for {
					select {
					case <-stop:
						return
					default:
					}
					got, _, err := e.TopK(context.Background(), spec)
					reads.Add(1)
					if err != nil {
						report("%v", err)
						continue
					}
					gens := answers[si][fmt.Sprint(got)]
					switch {
					case len(gens) == 0:
						report("ranking %+v is no published generation's", got)
					case gens[len(gens)-1] < last:
						report("ranking %+v is generation %v's, after generation %d's", got, gens, last)
					default:
						last = max(last, gens[0])
					}
				}
			}()
		}
		for _, op := range ops[setup:] {
			if err := op(e); err != nil {
				t.Error(err)
				break
			}
			// let at least one read finish per generation, so that reads
			// and writes really interleave
			for seen := reads.Load(); reads.Load() == seen; {
				runtime.Gosched()
			}
		}
		close(stop)
		wg.Wait()
	}
}
