package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"simsub/api"
	"simsub/internal/engine"
	"simsub/internal/storage"
)

// outcome is one workload run's result: the metric values of the mode it
// ran in, the operation counts the driver reads, and what the result file
// adds for a human reader.
type outcome struct {
	metrics   *metricSet
	attempted int
	failed    int
	reasons   []string
	info      map[string]metric // printed and filed, not gated
	samples   map[string]int    // sample counts behind the metrics
	corpus    corpusInfo
	cycles    int
}

type corpusInfo struct {
	Kind         string `json:"kind"`
	Trajectories int    `json:"trajectories"`
	Points       int    `json:"points"`
}

// cycle is one complete pass over a workload: set up from nothing, one
// timed round, crash and recover, tear down. A run makes a fixed number of
// cycles (see cyclesFor), so every metric — set-up and recovery included —
// is measured several times, spread over the whole run.
type cycle struct {
	setup    time.Duration   // process-start-to-first-timed-op, done again
	heapMB   float64         // heap the fleet holds once it holds the corpus
	wall     time.Duration   // the timed round
	lat      []time.Duration // the round's query latencies
	load     time.Duration   // the acknowledged load POSTs behind ingest_records_per_s
	loaded   int             // records those POSTs carried
	recovers []time.Duration // recoveriesPerCycle reopenings of the crashed state
	diskPP   float64         // bytes on disk per stored point
}

// recoveriesPerCycle is how often a cycle reopens its crashed state: a
// recovery takes milliseconds, so a run can afford many.
const recoveriesPerCycle = 8

// firstAnswers keeps the first cycle's answers; later cycles must repeat
// them, and verification scores them against the oracle.
type firstAnswers struct {
	matches [][]api.Match
	digests []uint64
	set     bool
}

// cyclesFor is the work of a run: how many cycles --seconds buys at the
// workload's frozen nominal cycle length. It is a function of the arguments
// alone, never of how fast the machine happens to be, so two runs of one
// commit do the same work and reduce the same number of samples.
func cyclesFor(p params, seconds float64) int {
	return max(minCycles, int(seconds/p.CycleSeconds))
}

// overrun is how far past --seconds a run may expect to go before it sheds
// cycles: a further cycle starts only while one of the mean length so far
// still ends within overrun x --seconds. The driver's time limit covers all
// its runs together, so a machine far slower than the reference box drops
// cycles instead of breaking it; the record's cycle count shows when.
const overrun = 1.15

// runE2E is the untraced run: the fixed number of cycles, the answers
// checked against the oracle, and the end-to-end metrics.
func (h *harness) runE2E(ctx context.Context) (*outcome, error) {
	out := &outcome{metrics: newMetricSet(e2eMetrics), info: map[string]metric{}, samples: map[string]int{}}
	limit := time.Duration(overrun * h.cfg.Seconds * float64(time.Second))
	var cycles []cycle
	var first firstAnswers
	var calibs []time.Duration
	start := time.Now()
	for c := 0; c < cyclesFor(h.p, h.cfg.Seconds) && (c < minCycles || time.Since(start)+time.Since(start)/time.Duration(c) <= limit); c++ {
		calibs = append(calibs, calibrate())
		cy, err := h.cycle(ctx, c, &first)
		if err != nil {
			return nil, err
		}
		cycles = append(cycles, cy)
		h.cfg.Log("cycle %d: calibration %.1fms, set-up %.3fs, round %.3fs, recovery %.4fs", c+1, ms(calibs[c]),
			cy.setup.Seconds(), cy.wall.Seconds(), median(cy.recovers).Seconds())
	}
	out.info["harness.calib_ms"] = metric{ms(median(calibs)), "ms"}
	out.cycles = len(cycles)
	out.corpus = corpusInfo{Kind: "synthetic-porto", Trajectories: len(h.in.corpus), Points: h.in.points}

	// Verification against the oracle, on the first cycle's answers (every
	// later cycle was held to them).
	finalCorpus := h.in.corpus
	if len(h.in.stream) > 0 {
		finalCorpus = append(finalCorpus[:len(finalCorpus):len(finalCorpus)], h.in.stream...)
	}
	orc := newOracle(finalCorpus)
	truths := orc.exactAll(ctx, h.in.ops, h.in.verify)
	var qa quality
	for i, pos := range h.in.verify {
		tr := truths[i]
		if tr.err != nil {
			return nil, fmt.Errorf("oracle on op %d: %w", pos, tr.err)
		}
		if isExactSpec(h.in.ops[pos].Spec) {
			if err := sameRanking(first.matches[pos], tr.exact); err != nil {
				h.fails.add("op %d (%s) differs from the oracle: %v", pos, h.in.ops[pos].Class, err)
			}
		}
		qa.add(orc, tr.m, tr.q, first.matches[pos], tr.exact)
	}
	out.metrics.set("approx_ratio", qa.approxRatio())
	out.metrics.set("mean_rank", qa.meanRank())
	out.metrics.set("recall_at_k", qa.recall())
	for _, name := range []string{"approx_ratio", "mean_rank", "recall_at_k"} {
		out.samples[name] = qa.n
	}

	report(out, cycles)
	out.attempted = int(h.attempted.Load())
	out.failed = h.fails.count()
	out.reasons = h.fails.reasons
	out.info["error_rate"] = metric{Value: float64(out.failed) / float64(max(out.attempted, 1)), Unit: "ratio"}
	return out, nil
}

// cycle runs one pass and tears its fleet down.
func (h *harness) cycle(ctx context.Context, c int, first *firstAnswers) (cycle, error) {
	var cy cycle
	st, err := h.setUp(ctx, fmt.Sprintf("cycle%d", c))
	if err != nil {
		return cy, err
	}
	defer func() {
		h.f.destroy()
		h.f = nil
	}()
	cy.setup, cy.load, cy.loaded = st.total, sum(st.batches), st.records

	acked := len(h.in.corpus)
	if h.w.Name == "ingest_query" {
		runtime.GC()
		ir := h.ingestOnce(ctx)
		cy.heapMB = float64(liveHeap()-st.heapBase) / (1 << 20)
		if ir.acked != len(h.in.stream) {
			h.fails.add("cycle %d acknowledged %d of %d streamed records", c+1, ir.acked, len(h.in.stream))
		}
		acked += ir.acked
		cy.wall, cy.lat = ir.wall, ir.reader
		cy.load, cy.loaded = ir.wall, ir.acked
		if !first.set {
			// the reads to verify are taken once more, now that the corpus
			// has stopped growing under them
			first.matches = make([][]api.Match, len(h.in.ops))
			first.set = true
			h.replay(ctx, h.edge, h.in.ops, 1, func(pos int, res *api.QueryResult) {
				if err := checkShape(h.in.ops[pos].Spec, res, h.trajLen); err != nil {
					h.fails.add("post-ingest op %d: %v", pos, err)
					return
				}
				first.matches[pos] = res.Matches
			})
		}
	} else {
		cy.heapMB = float64(liveHeap()-st.heapBase) / (1 << 20)
		rd := h.checkedReplay(ctx, c, first)
		cy.wall, cy.lat = rd.wall, rd.lat
	}

	// Durability: bytes on disk after a sync, then crash and recover.
	if err := h.f.sync(); err != nil {
		return cy, err
	}
	var disk int64
	for _, n := range h.f.nodes {
		b, err := dirBytes(n.dir)
		if err != nil {
			return cy, fmt.Errorf("sizing %s: %w", n.dir, err)
		}
		disk += b
	}
	trajs, points := h.f.stored()
	if trajs != acked {
		h.fails.add("cycle %d: fleet holds %d trajectories, %d were acknowledged", c+1, trajs, acked)
	}
	cy.diskPP = float64(disk) / float64(points)
	for r := 0; r < recoveriesPerCycle; r++ {
		runtime.GC() // a collection inside a few-millisecond recovery would be most of it
		rec, err := h.crashAndRecover(ctx, acked)
		if err != nil {
			return cy, err
		}
		cy.recovers = append(cy.recovers, rec.total)
	}
	return cy, nil
}

// liveHeap returns HeapAlloc after two collections: what is reachable now.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return int64(mem.HeapAlloc)
}

// checkedReplay is the timed round of the query-only workloads: the op list
// once through the edge, every answer checked for shape and held to the
// first cycle's.
func (h *harness) checkedReplay(ctx context.Context, c int, first *firstAnswers) round {
	ops := h.in.ops
	record := !first.set
	if record {
		first.matches, first.digests, first.set = make([][]api.Match, len(ops)), make([]uint64, len(ops)), true
	}
	runtime.GC()
	return h.replay(ctx, h.edge, ops, h.p.Clients, func(pos int, res *api.QueryResult) {
		if err := checkShape(ops[pos].Spec, res, h.trajLen); err != nil {
			h.fails.add("op %d (%s): %v", pos, ops[pos].Class, err)
			return
		}
		d := digest(res.Matches)
		if record {
			first.matches[pos], first.digests[pos] = res.Matches, d
		} else if d != first.digests[pos] {
			h.fails.add("op %d (%s): cycle %d answer differs from cycle 1", pos, ops[pos].Class, c+1)
		}
	})
}

// report reduces the cycles to the run's metrics: the median cycle for
// everything a cycle measures once (set-up, the round's rate, the load
// rate, heap, disk), the median reopening for recovery, and percentiles
// over the pooled samples of every round for latency. Ten same-code runs on
// the reference box showed medians repeating better than best-of-cycles:
// the box drifts between speeds for tens of seconds at a time, and the best
// of a run's cycles is whichever speed it happened to touch.
func report(out *outcome, cycles []cycle) {
	var setups, walls, loads, recovers, all []time.Duration
	var heaps, disks, rates []float64
	for _, cy := range cycles {
		setups = append(setups, cy.setup)
		walls = append(walls, cy.wall)
		loads = append(loads, cy.load)
		recovers = append(recovers, cy.recovers...)
		all = append(all, cy.lat...)
		heaps = append(heaps, cy.heapMB)
		disks = append(disks, cy.diskPP)
		rates = append(rates, float64(len(cy.lat))/cy.wall.Seconds())
	}
	out.metrics.set("setup_s", median(setups).Seconds())
	out.metrics.set("throughput_qps", median(rates))
	out.metrics.set("latency_p50_ms", ms(percentile(all, 0.50)))
	out.metrics.set("latency_p95_ms", ms(percentile(all, 0.95)))
	out.metrics.set("ingest_records_per_s", float64(cycles[0].loaded)/median(loads).Seconds())
	out.metrics.set("recover_s", median(recovers).Seconds())
	out.metrics.set("disk_bytes_per_point", median(disks))
	out.metrics.set("heap_after_load_mb", median(heaps))
	for _, name := range []string{"setup_s", "throughput_qps", "ingest_records_per_s", "disk_bytes_per_point", "heap_after_load_mb"} {
		out.samples[name] = len(cycles)
	}
	out.samples["recover_s"] = len(recovers)
	out.samples["latency_p50_ms"], out.samples["latency_p95_ms"] = len(all), len(all)
	// p99 does not repeat within a tenth on the reference box: information
	out.info["latency_p99_ms"] = metric{ms(percentile(all, 0.99)), "ms"}
	out.info["round_wall_median_s"] = metric{median(walls).Seconds(), "s"}
}

// recovery is what one reopening measured, summed over the nodes.
type recovery struct {
	total  time.Duration // Open + registrations + AttachStore + first query
	open   time.Duration
	attach time.Duration
	stats  []storage.RecoveryStats
}

// crashAndRecover crashes the fleet the only way a live process can be
// crashed from inside — by copying each node's data directory as it stands,
// with no final snapshot and no close — and reopens the copy: storage.Open,
// the boot-order registrations, Engine.AttachStore and the first query, per
// node. The reopened fleet must hold the acknowledged count and answer the
// probe specs exactly as the live nodes do.
func (h *harness) crashAndRecover(ctx context.Context, acked int) (recovery, error) {
	var rec recovery
	probes := h.recoveryProbes()
	total := 0
	for ni, n := range h.f.nodes {
		var want []uint64
		for _, spec := range probes {
			res := n.eng.QueryOne(ctx, spec)
			if res.Error != nil {
				return rec, fmt.Errorf("pre-crash probe on node %d: %v", ni, res.Error)
			}
			want = append(want, digest(res.Matches))
		}
		dir := filepath.Join(h.dir, fmt.Sprintf("crash-node%d", ni))
		if err := copyDir(n.dir, dir); err != nil {
			return rec, fmt.Errorf("copying %s: %w", n.dir, err)
		}
		begin := time.Now()
		st, rs, err := storage.Open(dir, storage.Options{})
		if err != nil {
			return rec, fmt.Errorf("recovering %s: %w", dir, err)
		}
		opened := time.Now()
		eng := engine.New(engineConfig(h.p))
		if h.in.encoder != nil {
			if _, err := eng.SetEncoder(h.in.encoder); err != nil {
				return rec, err
			}
		}
		if err := eng.AttachStore(st); err != nil {
			return rec, fmt.Errorf("attaching %s: %w", dir, err)
		}
		attached := time.Now()
		rec.open, rec.attach = rec.open+opened.Sub(begin), rec.attach+attached.Sub(opened)
		if h.tr != nil {
			// the recovery ladder: storage.Open, and under it AttachStore
			parent := h.tr.add("storage.open", begin, opened, -1, ni)
			h.tr.add("engine.attach_store", opened, attached, parent, ni)
		}
		for pi, spec := range probes {
			res := eng.QueryOne(ctx, spec)
			h.attempted.Add(1)
			if res.Error != nil {
				h.fails.add("recovered node %d probe %d: %v", ni, pi, res.Error)
			} else if digest(res.Matches) != want[pi] {
				h.fails.add("recovered node %d probe %d: ranking differs from the live node's", ni, pi)
			}
			if pi == 0 {
				rec.total += time.Since(begin)
			}
		}
		total += eng.Len()
		rec.stats = append(rec.stats, *rs)
		if err := st.Close(); err != nil {
			return rec, fmt.Errorf("closing %s: %w", dir, err)
		}
		_ = os.RemoveAll(dir)
	}
	if total != acked {
		h.fails.add("recovery found %d records, %d were acknowledged", total, acked)
	}
	return rec, nil
}

// recoveryProbes picks the specs a recovered node must answer like the live
// one: the first few of the list that need no policy (a recovered engine
// registers none — the policy is not part of the durable state), cut down
// to k=1 over the query's first points so that recover_s times the recovery
// and not whichever query the seed put first.
func (h *harness) recoveryProbes() []api.QuerySpec {
	var out []api.QuerySpec
	for _, o := range h.in.ops {
		if info, ok := api.LookupAlgorithm(o.Spec.WithDefaults().Algorithm); !ok || info.NeedsPolicy {
			continue
		}
		spec := o.Spec
		spec.K = 1
		spec.Query.Points = spec.Query.Points[:min(6, len(spec.Query.Points))]
		out = append(out, spec)
		if len(out) == 4 {
			break
		}
	}
	return out
}
