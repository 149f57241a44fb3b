package engine

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"simsub/internal/geo"
	"simsub/internal/traj"
)

// TestBatchedLoadKeepsRankings: how a corpus arrived is invisible to a
// query. An engine loaded in one Add (one bulk-loaded tree per shard) and
// one loaded in 64 (a forest per shard, merged as it grew) return the same
// rankings, match for match.
func TestBatchedLoadKeepsRankings(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	data := randSet(rng, 1280)
	queries := []traj.Trajectory{randTraj(rng, 6), randTraj(rng, 11), randTraj(rng, 3)}
	filter := &geo.Rect{MinX: 2, MinY: 2, MaxX: 7, MaxY: 7}
	for _, shards := range []int{1, 4} {
		for _, kind := range []IndexKind{RTree, ScanAll} {
			whole := New(Config{Shards: shards, Index: kind})
			if _, err := whole.Add(data); err != nil {
				t.Fatal(err)
			}
			batched := New(Config{Shards: shards, Index: kind})
			for lo := 0; lo < len(data); lo += len(data) / 64 {
				if _, err := batched.Add(data[lo : lo+len(data)/64]); err != nil {
					t.Fatal(err)
				}
			}
			for _, measure := range []string{"dtw", "frechet"} {
				for _, algorithm := range []string{"exacts", "pss"} {
					for _, f := range []*geo.Rect{nil, filter} {
						for qi, q := range queries {
							name := fmt.Sprintf("shards=%d index=%d %s/%s filter=%v query %d", shards, kind, measure, algorithm, f != nil, qi)
							spec := Query{Q: q, K: 10, Measure: measure, Algorithm: algorithm, Filter: f}
							want, _, err := whole.TopK(context.Background(), spec)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							got, _, err := batched.TopK(context.Background(), spec)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							if len(want) == 0 || !matchesEqual(got, want) {
								t.Fatalf("%s: loaded in 64 batches %+v, loaded whole %+v", name, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestConcurrentAddNeverMixesGenerations runs readers through a stream of
// Adds (under -race in CI). Every batch carries, on shard 0, k copies of
// the query slid a little less far along it than the batch before, so
// the exact top-k of any consistent view is exactly the newest visible
// batch's k copies, in order. A ranking that mixes two batches, skips a
// copy, or steps back to an older batch means a reader saw a shard view
// that no Add ever installed (or a cached answer outlived its store).
func TestConcurrentAddNeverMixesGenerations(t *testing.T) {
	const (
		k           = 4
		generations = 60
		readers     = 3
	)
	q := traj.FromXY(0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0)
	for _, shards := range []int{1, 4} {
		batchSize := shards * 2 * k
		rng := rand.New(rand.NewSource(int64(shards)))
		batch := func(g int) []traj.Trajectory {
			ts := make([]traj.Trajectory, batchSize)
			for i := range ts {
				if j := i / shards; i%shards == 0 && j < k {
					// slid along q by dx < 0.5 the copy still meets q's MBR
					// and sits at dtw 6·dx, frechet dx: closer with every
					// generation, and within one in the order of j
					dx := (float64(generations-g) + float64(j)/(2*k)) / (2 * (generations + 1))
					ts[i] = q.Translate(dx, 0)
				} else {
					ts[i] = randTraj(rng, 8).Translate(500, 500)
				}
			}
			return ts
		}
		e := New(Config{Shards: shards, CacheSize: 8})
		if _, err := e.Add(batch(0)); err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var reads atomic.Int64
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				measure := []string{"dtw", "frechet"}[r%2]
				last, reported := 0, false
				report := func(format string, args ...any) {
					if !reported { // once per reader; it keeps reading so the writer never waits in vain
						t.Errorf("shards=%d reader %d: "+format, append([]any{shards, r}, args...)...)
					}
					reported = true
				}
				for {
					select {
					case <-stop:
						return
					default:
					}
					got, _, err := e.TopK(context.Background(), Query{Q: q, K: k, Measure: measure, Algorithm: "exacts"})
					reads.Add(1)
					if err != nil || len(got) != k {
						report("%d matches, err %v", len(got), err)
						continue
					}
					g := got[0].TrajID / batchSize
					for j, m := range got {
						if m.TrajID != g*batchSize+j*shards {
							report("ranking %+v is not generation %d's %d copies in order", got, g, k)
						}
					}
					if g < last {
						report("saw generation %d after generation %d", g, last)
					}
					last = g
				}
			}(r)
		}
		for g := 1; g < generations; g++ {
			if _, err := e.Add(batch(g)); err != nil {
				t.Error(err)
				break
			}
			// let at least one read finish per generation, so that reads
			// and Adds really interleave
			for seen := reads.Load(); reads.Load() == seen; {
				runtime.Gosched()
			}
		}
		close(stop)
		wg.Wait()
		got, _, err := e.TopK(context.Background(), Query{Q: q, K: k, Measure: "dtw", Algorithm: "exacts"})
		if err != nil || len(got) != k || got[0].TrajID/batchSize != generations-1 {
			t.Fatalf("shards=%d: after the last Add the ranking is %+v (err %v), want generation %d", shards, got, err, generations-1)
		}
	}
}
