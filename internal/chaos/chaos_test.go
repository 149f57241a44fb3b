package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"simsub/api"
	"simsub/client"
	"simsub/internal/engine"
	"simsub/internal/failpoint"
	"simsub/internal/geo"
	"simsub/internal/router"
	"simsub/internal/server"
	"simsub/internal/storage"
	"simsub/internal/traj"
)

// fleet is an in-process router over real shard nodes: every component
// runs in this test binary, so the race detector sees all of it and armed
// failpoints hit every layer at once.
type fleet struct {
	engines []*engine.Engine
	r       *router.Router
}

func newFleet(t *testing.T, nodes int, mut func(*router.Config)) *fleet {
	return newFleetEng(t, nodes, engine.Config{Shards: 2, CacheSize: 64, Index: engine.ScanAll}, mut)
}

func newFleetEng(t *testing.T, nodes int, engCfg engine.Config, mut func(*router.Config)) *fleet {
	t.Helper()
	fl := &fleet{}
	var urls []string
	for i := 0; i < nodes; i++ {
		eng := engine.New(engCfg)
		srv := httptest.NewServer(server.New(eng, server.Options{EnableFailpoints: true}))
		t.Cleanup(srv.Close)
		fl.engines = append(fl.engines, eng)
		urls = append(urls, srv.URL)
	}
	cfg := router.Config{
		Nodes: urls,
		Retry: client.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
	}
	if mut != nil {
		mut(&cfg)
	}
	r, err := router.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fl.r = r
	return fl
}

func randWalk(rng *rand.Rand, n int) traj.Trajectory {
	pts := make([]geo.Point, n)
	x, y := rng.Float64()*10, rng.Float64()*10
	for i := range pts {
		x += rng.NormFloat64() * 0.3
		y += rng.NormFloat64() * 0.3
		pts[i] = geo.Point{X: x, Y: y, T: float64(i)}
	}
	return traj.New(pts...)
}

func corpus(rng *rand.Rand, n int) []api.Trajectory {
	out := make([]api.Trajectory, n)
	for i := range out {
		out[i] = api.FromTraj(randWalk(rng, 8+rng.Intn(8)))
	}
	return out
}

// rankingBytes reduces a set of specs to the canonical JSON of their
// rankings — the "byte-identical once faults clear" currency.
func rankingBytes(t *testing.T, r *router.Router, specs []api.QuerySpec) ([]byte, *api.Error) {
	t.Helper()
	var all [][]api.Match
	for _, spec := range specs {
		res := r.QueryOne(context.Background(), spec)
		if res.Error != nil {
			return nil, res.Error
		}
		if res.Partial != nil {
			return nil, api.Errorf(api.CodeOverloaded, "partial over %d/%d groups", res.Partial.NodesFailed, res.Partial.NodesTotal)
		}
		all = append(all, res.Matches)
	}
	buf, err := json.Marshal(all)
	if err != nil {
		t.Fatal(err)
	}
	return buf, nil
}

// TestChaosQueryStorm is the flagship: a 2-node fleet answers a concurrent
// query storm while transport errors, severed connections and slow scans
// are being injected at every layer. Invariants under fire: every query
// returns within its deadline (bounded tail), every failure is a typed
// api.Error, and nothing deadlocks. Once the faults clear, the admission
// queues drain to zero, the circuit breakers close, and the fleet answers
// the pre-chaos specs with byte-identical rankings.
func TestChaosQueryStorm(t *testing.T) {
	failpoint.DisableAll()
	defer failpoint.DisableAll()

	rng := rand.New(rand.NewSource(42))
	fl := newFleet(t, 2, func(c *router.Config) {
		c.BreakerThreshold = 3
		c.BreakerCooldown = 100 * time.Millisecond
	})
	if _, err := fl.r.Load(context.Background(), corpus(rng, 150)); err != nil {
		t.Fatalf("load: %v", err)
	}

	specs := make([]api.QuerySpec, 6)
	for i := range specs {
		specs[i] = api.QuerySpec{Query: api.FromTraj(randWalk(rng, 6)), K: 5 + i}
	}
	baseline, aerr := rankingBytes(t, fl.r, specs)
	if aerr != nil {
		t.Fatalf("baseline: %v", aerr)
	}

	// chaos on: every layer at once
	for site, spec := range map[string]string{
		"router/transport": "25%error(chaos: transport torn)",
		"server/request":   "20%drop",
		"engine/scan":      "10%sleep(3ms)",
	} {
		if err := failpoint.Enable(site, spec); err != nil {
			t.Fatal(err)
		}
	}

	const (
		workers    = 8
		perWorker  = 25
		perQueryTO = 5 * time.Second
	)
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		succeeded int
		failed    int
		worstWall time.Duration
	)
	fail := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		t.Errorf(format, args...)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < perWorker; i++ {
				spec := api.QuerySpec{Query: api.FromTraj(randWalk(wrng, 6)), K: 5}
				ctx, cancel := context.WithTimeout(context.Background(), perQueryTO)
				start := time.Now()
				var qerr *api.Error
				if i%2 == 0 {
					res := fl.r.QueryOne(ctx, spec)
					qerr = res.Error
				} else {
					_, err := fl.r.QueryStream(ctx, spec, func(api.Match) error { return nil })
					if err != nil {
						var ae *api.Error
						if !errors.As(err, &ae) {
							fail("worker %d query %d: untyped error %v", w, i, err)
							cancel()
							continue
						}
						qerr = ae
					}
				}
				wall := time.Since(start)
				cancel()
				mu.Lock()
				if wall > worstWall {
					worstWall = wall
				}
				if qerr == nil {
					succeeded++
				} else {
					failed++
				}
				mu.Unlock()
				if wall >= perQueryTO {
					fail("worker %d query %d took %v: unbounded under chaos", w, i, wall)
				}
				if qerr != nil && qerr.Code == "" {
					fail("worker %d query %d: failure without a typed code: %+v", w, i, qerr)
				}
			}
		}(w)
	}
	wg.Wait()
	t.Logf("storm: %d ok, %d typed failures, worst wall %v", succeeded, failed, worstWall)
	if succeeded == 0 {
		t.Fatal("no query survived the storm: the fault rates should leave most traffic alive")
	}

	// chaos off: the fleet must converge back to exact pre-chaos behavior
	failpoint.DisableAll()
	deadline := time.Now().Add(15 * time.Second)
	var after []byte
	for {
		var aerr *api.Error
		after, aerr = rankingBytes(t, fl.r, specs)
		if aerr == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never recovered after faults cleared: %v", aerr)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !bytes.Equal(baseline, after) {
		t.Fatal("post-chaos rankings differ from the pre-chaos baseline")
	}

	// no stuck slots anywhere: admission queues empty, nothing in flight
	for i, eng := range fl.engines {
		st := eng.Stats()
		if st.QueueDepth != 0 || st.InFlight != 0 {
			t.Errorf("node %d: queue_depth=%d in_flight=%d after the storm, want 0/0", i, st.QueueDepth, st.InFlight)
		}
	}
	// breakers close again (the recovery queries above act as probes)
	stats, err := fl.r.Stats(context.Background())
	if err != nil {
		t.Fatalf("stats after recovery: %v", err)
	}
	for _, n := range stats.Router.Nodes {
		if n.Breaker == "open" {
			t.Errorf("node %s breaker still open after recovery", n.Node)
		}
	}
}

// TestChaosOverloadShedsAndRecovers floods a tiny-capacity fleet far past
// its admission limits: the overflow must be shed with typed overloaded
// errors carrying Retry-After hints — not queued unboundedly, not hung —
// and service must be clean again afterwards.
func TestChaosOverloadShedsAndRecovers(t *testing.T) {
	failpoint.DisableAll()
	defer failpoint.DisableAll()

	rng := rand.New(rand.NewSource(43))
	// a deliberately tiny node: 2 admission slots, 8 queue spots — the
	// 32-worker burst below must overflow it
	fl := newFleetEng(t, 1,
		engine.Config{Shards: 2, CacheSize: 0, Index: engine.ScanAll, QuerySlots: 2, QueueLimit: 8},
		func(c *router.Config) {
			c.Retry = client.RetryPolicy{MaxAttempts: 1, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond}
		})
	engines := fl.engines
	// slow every scan so the burst piles up on the queue
	if _, err := fl.r.Load(context.Background(), corpus(rng, 80)); err != nil {
		t.Fatalf("load: %v", err)
	}
	if err := failpoint.Enable("engine/scan", "sleep(20ms)"); err != nil {
		t.Fatal(err)
	}

	var (
		wg         sync.WaitGroup
		mu         sync.Mutex
		ok, shed   int
		otherFails []string
	)
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(int64(200 + w)))
			for i := 0; i < 4; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				res := fl.r.QueryOne(ctx, api.QuerySpec{Query: api.FromTraj(randWalk(wrng, 6)), K: 3})
				cancel()
				mu.Lock()
				switch {
				case res.Error == nil:
					ok++
				case res.Error.Code == api.CodeOverloaded:
					shed++
					if res.Error.RetryAfterMS <= 0 {
						otherFails = append(otherFails, fmt.Sprintf("overloaded without Retry-After: %+v", res.Error))
					}
				default:
					otherFails = append(otherFails, fmt.Sprintf("unexpected failure: %+v", res.Error))
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	failpoint.DisableAll()
	t.Logf("burst: %d ok, %d shed", ok, shed)
	for _, f := range otherFails {
		t.Error(f)
	}
	if ok == 0 {
		t.Fatal("nothing was admitted during the burst")
	}
	if shed == 0 {
		t.Fatal("a 32-way burst against 2 slots + 8 queue spots shed nothing")
	}

	// afterwards: queue drained, and a fresh query is served cleanly
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := engines[0].Stats()
		if st.QueueDepth == 0 && st.InFlight == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("admission never drained: queue_depth=%d in_flight=%d", st.QueueDepth, st.InFlight)
		}
		time.Sleep(5 * time.Millisecond)
	}
	res := fl.r.QueryOne(context.Background(), api.QuerySpec{Query: api.FromTraj(randWalk(rng, 6)), K: 3})
	if res.Error != nil {
		t.Fatalf("query after the burst: %v", res.Error)
	}
}

// TestChaosStorageFaults drives the durable write path through injected
// disk trouble: fsync stalls only slow ingest down, a failing append is a
// typed error that leaves the engine/store agreed on the committed prefix,
// and after the faults clear a snapshot + reopen serves the full corpus.
func TestChaosStorageFaults(t *testing.T) {
	failpoint.DisableAll()
	defer failpoint.DisableAll()

	dir := t.TempDir()
	st, _, err := storage.Open(dir, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Config{Shards: 2})
	if err := eng.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(44))
	batch := func(n int) []traj.Trajectory {
		out := make([]traj.Trajectory, n)
		for i := range out {
			out[i] = randWalk(rng, 10)
		}
		return out
	}

	// disk stalls: ingest survives, just slower
	if err := failpoint.Enable("storage/fsync", "2*sleep(30ms)"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Add(batch(20)); err != nil {
		t.Fatalf("ingest under fsync stalls: %v", err)
	}

	// hard append failure: typed error, consistent prefix
	if err := failpoint.Enable("storage/append", "error(disk gone)"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Add(batch(10)); err == nil {
		t.Fatal("append with a dead disk succeeded")
	}
	if eng.Len() != 20 || st.Len() != 20 {
		t.Fatalf("after failed append: engine=%d store=%d, want 20/20", eng.Len(), st.Len())
	}

	// faults clear: ingest resumes, snapshot commits, reopen recovers all
	failpoint.DisableAll()
	if _, err := eng.Add(batch(15)); err != nil {
		t.Fatalf("ingest after faults cleared: %v", err)
	}
	if err := st.Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	st2, rs, err := storage.Open(dir, storage.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	if st2.Len() != 35 {
		t.Fatalf("recovered %d trajectories, want 35 (recovery: %s)", st2.Len(), rs.String())
	}
}

// TestChaosSnapshotRenameFault: a failed snapshot commit rename must leave
// the store consistent — the embedding set stays uncheckpointed, so the
// checkpoint Close takes commits it, and recovery brings back the full log
// with every embedding.
func TestChaosSnapshotRenameFault(t *testing.T) {
	failpoint.DisableAll()
	defer failpoint.DisableAll()

	dir := t.TempDir()
	st, _, err := storage.Open(dir, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(45))
	ts := make([]traj.Trajectory, 12)
	for i := range ts {
		ts[i] = randWalk(rng, 8)
	}
	recs, err := st.Append(ts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		st.SetEmbedding(r.ID, 1, []float64{float64(r.ID), 1})
	}
	if err := failpoint.Enable("storage/snapshot-rename", "error(rename lost)"); err != nil {
		t.Fatal(err)
	}
	if err := st.Snapshot(); err == nil {
		t.Fatal("snapshot with a failing rename succeeded")
	}
	failpoint.DisableAll()
	if err := st.Close(); err != nil {
		t.Fatalf("close after failed snapshot: %v", err)
	}
	st2, rs, err := storage.Open(dir, storage.Options{})
	if err != nil {
		t.Fatalf("reopen after failed snapshot: %v", err)
	}
	defer st2.Close()
	if st2.Len() != len(ts) || rs.SnapshotRecords != len(ts) || rs.SnapshotsDiscarded != 0 {
		t.Fatalf("recovered %d trajectories (%s), want %d with every embedding restored", st2.Len(), rs.String(), len(ts))
	}
}
