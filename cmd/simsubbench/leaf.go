package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"time"

	"simsub/api"
	"simsub/internal/core"
	"simsub/internal/engine"
	"simsub/internal/rl"
	"simsub/internal/sim"
	"simsub/internal/storage"
	"simsub/internal/traj"
)

// leafPairs is how many (candidate, query) pairs the leaf unit costs are
// timed on.
const leafPairs = 64

// leafCosts times the innermost public functions on sampled (candidate,
// query) pairs: one Algorithm.Search per algorithm the workloads use, the
// measures' Dist per DP cell, the lower bound and how tight it is, one
// incremental Extend, and a policy decision from the table and from the
// network. The pairs are a sampled query against the trajectory the
// oracle ranks first for it — a candidate every scan scores in full.
func (h *harness) leafCosts(ctx context.Context, tr *tracer, m *metricSet, orc *oracle) error {
	type pair struct{ t, q traj.Trajectory }
	var pairs []pair
	for _, pos := range h.ladderSample() {
		if len(pairs) == leafPairs {
			break
		}
		spec := h.in.ops[pos].Spec
		spec.Filter, spec.K = nil, 1
		exact, _, q, err := orc.exact(ctx, spec)
		if err != nil {
			return fmt.Errorf("oracle on leaf op %d: %w", pos, err)
		}
		if len(exact) > 0 {
			pairs = append(pairs, pair{orc.corpus[exact[0].TrajIndex], q})
		}
	}
	if len(pairs) == 0 {
		return nil
	}
	dtw := sim.DTW{}

	// Algorithm.Search, per pair.
	algs := map[string]core.Algorithm{
		"exacts": core.ExactS{M: dtw},
		"pss":    core.PSS{M: dtw},
		"pos":    core.POS{M: dtw},
	}
	var table *rl.TablePolicy
	if h.in.policy != nil {
		var err error
		_, d := tr.do("rl.compile", -1, -1, func() { table, err = rl.Compile(h.in.policy, h.p.CompileRes) })
		if err != nil {
			return fmt.Errorf("compiling the policy: %w", err)
		}
		m.set("rl.compile_ms", ms(d))
		algs["rls-skip"] = core.RLS{M: dtw, Policy: h.in.policy, Table: table}
	}
	for name, alg := range algs {
		var total time.Duration
		for i, p := range pairs {
			_, d := tr.do("core.search."+name, -1, i, func() { alg.Search(p.t, p.q) })
			total += d
		}
		m.set("core.search_us_per_pair."+name, ms(total)*1000/float64(len(pairs)))
	}

	// Measure.Dist per DP cell, the lower bound per call and its tightness
	// against the true minimum subtrajectory distance, Extend per step.
	for name, meas := range map[string]sim.Measure{"dtw": dtw, "frechet": sim.Frechet{}} {
		var total time.Duration
		cells := 0
		for i, p := range pairs {
			_, d := tr.do("sim.dist."+name, -1, i, func() { meas.Dist(p.t, p.q) })
			total += d
			cells += p.t.Len() * p.q.Len()
		}
		m.set("sim.dist_ns_per_cell."+name, float64(total.Nanoseconds())/float64(cells))
	}
	var lbTotal, extTotal time.Duration
	var tight float64
	tights, steps := 0, 0
	for i, p := range pairs {
		lb := dtw.NewSubtrajLB(p.q)
		mbr := p.t.MBR()
		var bound float64
		_, d := tr.do("sim.lb", -1, i, func() { bound = lb.LowerBound(p.t, mbr, math.Inf(1)) })
		lbTotal += d
		if truth := (core.ExactS{M: dtw}).Search(p.t, p.q).Dist; truth > 0 {
			tight += bound / truth
			tights++
		}
		inc := dtw.NewIncremental(p.t, p.q)
		_, d = tr.do("sim.extend", -1, i, func() {
			inc.Init(0)
			for j := 1; j < p.t.Len(); j++ {
				inc.Extend()
			}
		})
		sim.Release(inc)
		extTotal += d
		steps += p.t.Len() - 1
	}
	m.set("sim.lb_ns_per_call", float64(lbTotal.Nanoseconds())/float64(len(pairs)))
	m.set("sim.lb_tightness", ratio(tight, float64(tights)))
	m.set("sim.extend_ns_per_step", float64(extTotal.Nanoseconds())/float64(max(steps, 1)))

	if h.in.policy == nil {
		return nil
	}
	// Policy decisions on random states of the unit hypercube, the domain
	// of the split MDP's similarity triplets.
	const decisions = 20000
	dim := h.in.policy.StateDim()
	rng := rand.New(rand.NewSource(h.cfg.Seed*1000 + 8))
	states := make([]float64, decisions*dim)
	for i := range states {
		states[i] = rng.Float64()
	}
	out := make([]int, 64)
	for name, src := range map[string]rl.ActorSource{"rl.table_ns_per_decision": table, "rl.net_ns_per_decision": h.in.policy} {
		actor := src.NewActor()
		_, d := tr.do(name, -1, -1, func() {
			for i := 0; i+64 <= decisions; i += 64 {
				actor.Actions(states[i*dim:(i+64)*dim], 64, out)
			}
		})
		actor.Release()
		m.set(name, float64(d.Nanoseconds())/float64(decisions/64*64))
	}
	_, d := tr.do("nn.infer", -1, -1, func() {
		for i := 0; i < decisions; i++ {
			h.in.policy.Action(states[i*dim : (i+1)*dim])
		}
	})
	m.set("nn.infer_ns_per_call", float64(d.Nanoseconds())/decisions)
	var skipped float64
	for _, p := range pairs {
		skipped += core.SkippedFraction(dtw, h.in.policy, p.t, p.q)
	}
	m.set("rl.skipped_fraction", skipped/float64(len(pairs)))
	return nil
}

// ladderBodies returns the NDJSON bodies the ingest ladder replays:
// ingest_query's own POSTs, and for the other workloads their set-up load
// batches re-encoded as NDJSON.
func (h *harness) ladderBodies() ([][]byte, []int, error) {
	if len(h.in.posts) > 0 {
		return h.in.posts, h.in.postLen, nil
	}
	var bodies [][]byte
	var lens []int
	for lo := 0; lo < len(h.in.corpus); lo += h.p.LoadBatch {
		hi := min(lo+h.p.LoadBatch, len(h.in.corpus))
		var buf bytes.Buffer
		if err := traj.WriteNDJSON(&buf, h.in.corpus[lo:hi]); err != nil {
			return nil, nil, err
		}
		bodies, lens = append(bodies, buf.Bytes()), append(lens, hi-lo)
	}
	return bodies, lens, nil
}

// ingestLadder replays the same NDJSON bodies at every level of the write
// path: client.load_stream into a fresh durable node, and under it the
// pieces that POST is made of, each on state of its own — traj.ReadNDJSON,
// Store.Append, Engine.Add on a storeless engine, Store.Snapshot and
// Store.Sync.
func (h *harness) ingestLadder(ctx context.Context, tr *tracer, m *metricSet) error {
	bodies, lens, err := h.ladderBodies()
	if err != nil {
		return err
	}
	records := 0
	for _, n := range lens {
		records += n
	}

	// client.load_stream, end to end, on a node preloaded like the timed
	// round's (the base corpus for ingest_query, empty otherwise).
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	nd, _, err := bootNode(filepath.Join(h.dir, "ladder-node"), h.p, &inputs{}, hc)
	if err != nil {
		return err
	}
	defer func() {
		_ = nd.srv.Close()
		_ = nd.st.Close()
	}()
	if len(h.in.posts) > 0 {
		if _, err := nd.eng.Add(h.in.corpus); err != nil {
			return fmt.Errorf("preloading the ladder node: %w", err)
		}
	}
	var post time.Duration
	postSpans := make([]int, len(bodies))
	for i, body := range bodies {
		var resp *api.BulkLoadResponse
		var err error
		var d time.Duration
		postSpans[i], d = tr.do("client.load_stream", -1, i, func() { resp, err = nd.c.LoadStream(ctx, bytes.NewReader(body)) })
		h.attempted.Add(1)
		if err != nil {
			return fmt.Errorf("ladder POST %d: %w", i, err)
		}
		if resp.Loaded != lens[i] {
			h.fails.add("ladder POST %d acknowledged %d of %d records", i, resp.Loaded, lens[i])
		}
		post += d
	}
	m.set("server.load_stream_ms_per_post", ms(post)/float64(len(bodies)))

	// The pieces, each replayed on the same bodies.
	batches := make([][]traj.Trajectory, len(bodies))
	var decode time.Duration
	for i, body := range bodies {
		var err error
		_, d := tr.do("traj.read_ndjson", postSpans[i], i, func() { batches[i], err = traj.ReadNDJSON(bytes.NewReader(body)) })
		if err != nil {
			return fmt.Errorf("decoding ladder body %d: %w", i, err)
		}
		decode += d
	}
	m.set("traj.ndjson_decode_us_per_record", ms(decode)*1000/float64(records))

	st, _, err := storage.Open(filepath.Join(h.dir, "ladder-store"), storage.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	var appendT time.Duration
	for i, b := range batches {
		var err error
		_, d := tr.do("storage.append", postSpans[i], i, func() { _, err = st.Append(b) })
		if err != nil {
			return fmt.Errorf("appending ladder batch %d: %w", i, err)
		}
		appendT += d
	}
	m.set("storage.append_us_per_record", ms(appendT)*1000/float64(records))
	_, d := tr.do("storage.sync", -1, -1, func() { err = st.Sync() })
	if err != nil {
		return fmt.Errorf("syncing the ladder store: %w", err)
	}
	m.set("storage.sync_ms", ms(d))
	_, d = tr.do("storage.snapshot", -1, -1, func() { err = st.Snapshot() })
	if err != nil {
		return fmt.Errorf("snapshotting the ladder store: %w", err)
	}
	m.set("storage.snapshot_ms", ms(d))

	eng := engine.New(engineConfig(h.p))
	if len(h.in.posts) > 0 {
		if _, err := eng.Add(h.in.corpus); err != nil {
			return err
		}
	}
	adds := make([]time.Duration, len(batches))
	for i, b := range batches {
		var err error
		_, adds[i] = tr.do("engine.add", postSpans[i], i, func() { _, err = eng.Add(b) })
		if err != nil {
			return fmt.Errorf("adding ladder batch %d: %w", i, err)
		}
	}
	m.set("engine.add_ms_per_batch", ms(sum(adds))/float64(len(adds)))
	m.set("engine.add_growth_ratio", ratio(float64(adds[len(adds)-1]), float64(adds[0])))
	return nil
}

// recoveryLadder crashes and reopens the fleet once: storage.Open and,
// under it, Engine.AttachStore, with what the recovery found.
func (h *harness) recoveryLadder(ctx context.Context, tr *tracer, m *metricSet) error {
	if err := h.f.sync(); err != nil {
		return err
	}
	var disk int64
	for _, n := range h.f.nodes {
		b, err := dirBytes(n.dir)
		if err != nil {
			return err
		}
		disk += b
	}
	trajs, points := h.f.stored()
	m.set("storage.bytes_per_point", float64(disk)/float64(points))
	var rec recovery
	var err error
	rec, err = h.crashAndRecover(ctx, trajs)
	if err != nil {
		return err
	}
	m.set("storage.open_ms", ms(rec.open))
	m.set("engine.attach_ms", ms(rec.attach))
	var replayed, snapshotted int
	for _, rs := range rec.stats {
		replayed += rs.Replayed
		snapshotted += rs.SnapshotRecords
	}
	m.set("storage.replayed_records", float64(replayed))
	m.set("storage.snapshotted_records", float64(snapshotted))
	return nil
}
