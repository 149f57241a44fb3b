package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"simsub/api"
	"simsub/internal/engine"
)

// span is one timed call into a layer's public surface, recorded by the
// benchmark's own code. Times are nanoseconds since the traced run began.
// The spans of one operation share its op_id; parent is the span one level
// up that operation's ladder, or -1.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op_id"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span already measured and returns its id.
func (t *tracer) add(name string, start, end time.Time, parent, op int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Parent: parent, Op: op})
	return id
}

// do times fn as one span and returns the span's id and duration.
func (t *tracer) do(name string, parent, op int, fn func()) (int, time.Duration) {
	start := time.Now()
	fn()
	end := time.Now()
	return t.add(name, start, end, parent, op), end.Sub(start)
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	buf, err := json.Marshal(struct {
		Schema string `json:"schema"`
		Spans  []span `json:"spans"`
	}{"simsubbench-trace/1", t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// counters is a snapshot of every public counter the ledger reads, summed
// over the nodes, plus the process's own.
type counters struct {
	eng      engine.Stats // summed over nodes; gauges hold the largest
	router   *api.RouterStats
	cpu      time.Duration
	mallocs  uint64
	gcPause  time.Duration
	queueMax float64
}

func (h *harness) counters(ctx context.Context) counters {
	var c counters
	for _, n := range h.f.nodes {
		s := n.eng.Stats()
		c.eng.CacheHits += s.CacheHits
		c.eng.CacheMisses += s.CacheMisses
		c.eng.CandidatesSeen += s.CandidatesSeen
		c.eng.LBSkipped += s.LBSkipped
		c.eng.EarlyAbandoned += s.EarlyAbandoned
		c.eng.Shed += s.Shed
		c.eng.DeadlineRejects += s.DeadlineRejects
		c.eng.DegradedQueries += s.DegradedQueries
		c.queueMax = max(c.queueMax, s.QueueWaitMS)
	}
	if h.f.rt != nil {
		if rs, err := h.f.rt.Stats(ctx); err == nil {
			c.router = rs.Router
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	c.mallocs, c.gcPause = mem.Mallocs, time.Duration(mem.PauseTotalNs)
	return c
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runTrace is the traced run behind the per-layer metrics: one set-up, the
// op list untraced and then half-traced twice (counters, process cost,
// tracing overhead),
// the query ladder on a sample, leaf unit costs, the ingest ladder and the
// recovery ladder. Every span lands in trace.json.
func (h *harness) runTrace(ctx context.Context) (*outcome, error) {
	out := &outcome{metrics: newMetricSet(layerMetrics), info: map[string]metric{}, samples: map[string]int{}}
	m := out.metrics
	tr := newTracer()
	h.tr = tr
	calib := calibrate()

	st, err := h.setUp(ctx, "traced")
	if err != nil {
		return nil, err
	}
	out.cycles = 1
	out.corpus = corpusInfo{Kind: "synthetic-porto", Trajectories: len(h.in.corpus), Points: h.in.points}
	m.set("rl.train_s", h.in.trainRL.Seconds())
	m.set("t2vec.train_s", h.in.trainEnc.Seconds())
	if h.f.rt != nil {
		m.set("router.load_ms_per_batch", ms(sum(st.batches))/float64(len(st.batches)))
	}

	// ingest_query streams its records first, as its timed round does, so
	// the ladder below runs against the corpus that round ends with.
	if h.w.Name == "ingest_query" {
		ir := h.ingestOnce(ctx)
		if ir.acked != len(h.in.stream) {
			h.fails.add("traced ingest acknowledged %d of %d records", ir.acked, len(h.in.stream))
		}
	}

	// The op list three times. Counters and process cost come from the
	// first replay, untraced. The other two price the tracing: one puts a
	// span around the odd positions, the other around the even ones, so
	// every op is timed once traced and once untraced, and a drift of the
	// box from one replay to the next slows as many traced ops as untraced.
	ops := h.in.ops
	shape := func(pos int, res *api.QueryResult) {
		if err := checkShape(ops[pos].Spec, res, h.trajLen); err != nil {
			h.fails.add("op %d (%s): %v", pos, ops[pos].Class, err)
		}
	}
	runtime.GC()
	before := h.counters(ctx)
	plain := h.replay(ctx, h.edge, ops, h.p.Clients, shape)
	after := h.counters(ctx)
	halves := make([]round, 2)
	for parity := range halves {
		runtime.GC()
		halves[parity] = h.replay(ctx, func(pos int) api.Searcher {
			if pos%2 == parity {
				return tracedSearcher{h.f.edge, tr}
			}
			return h.f.edge
		}, ops, h.p.Clients, shape)
	}
	// Per position, traced minus untraced. The two parities see the replays
	// in opposite order, so a replay that ran faster as a whole shifts their
	// differences in opposite directions: the median of each (one op caught
	// by a collection must not decide it), then the mean of the two.
	var extra [2][]time.Duration
	var untraced []time.Duration
	for pos := range ops {
		with, without := halves[pos%2].lat[pos], halves[1-pos%2].lat[pos]
		extra[pos%2], untraced = append(extra[pos%2], with-without), append(untraced, without)
	}
	m.set("harness.trace_overhead_pct", 100*ratio(float64(median(extra[0])+median(extra[1]))/2, float64(median(untraced))))
	h.ledgerCounters(m, before, after, len(ops))

	orc := newOracle(h.in.corpus)
	if err := h.queryLadder(ctx, tr, out, plain.lat, orc); err != nil {
		return nil, err
	}
	if err := h.leafCosts(ctx, tr, m, orc); err != nil {
		return nil, err
	}
	if err := h.ingestLadder(ctx, tr, m); err != nil {
		return nil, err
	}
	if err := h.recoveryLadder(ctx, tr, m); err != nil {
		return nil, err
	}

	m.set("harness.calib_ms", ms(min(calib, calibrate())))
	out.attempted = int(h.attempted.Load())
	out.failed = h.fails.count()
	out.reasons = h.fails.reasons
	m.set("harness.error_rate", float64(out.failed)/float64(max(out.attempted, 1)))
	// a storage call that fails aborts the run, so a run that got here had none
	m.set("storage.failed_ops", 0)

	path := filepath.Join(h.cfg.Scratch, "trace.json")
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("writing %s: %w", path, err)
	}
	h.cfg.Log("%d spans written to %s", len(tr.spans), path)
	h.f.destroy()
	h.f = nil
	return out, nil
}

// tracedSearcher records a client.query span around every call.
type tracedSearcher struct {
	s  api.Searcher
	tr *tracer
}

func (t tracedSearcher) Query(ctx context.Context, req api.Query) (resp *api.QueryResponse, err error) {
	t.tr.do("client.query", -1, -1, func() { resp, err = t.s.Query(ctx, req) })
	return resp, err
}

// ledgerCounters turns the counter deltas of one untraced replay into the
// count-type layer metrics, per edge operation.
func (h *harness) ledgerCounters(m *metricSet, b, a counters, ops int) {
	n := float64(ops)
	seen := float64(a.eng.CandidatesSeen - b.eng.CandidatesSeen)
	lb := float64(a.eng.LBSkipped - b.eng.LBSkipped)
	ea := float64(a.eng.EarlyAbandoned - b.eng.EarlyAbandoned)
	hits := float64(a.eng.CacheHits - b.eng.CacheHits)
	misses := float64(a.eng.CacheMisses - b.eng.CacheMisses)
	m.set("engine.cache_hit_ratio", ratio(hits, hits+misses))
	m.set("engine.queue_wait_ms", a.queueMax)
	m.set("engine.shed_per_query", float64(a.eng.Shed-b.eng.Shed)/n)
	m.set("engine.deadline_rejects_per_query", float64(a.eng.DeadlineRejects-b.eng.DeadlineRejects)/n)
	m.set("engine.degraded_per_query", float64(a.eng.DegradedQueries-b.eng.DegradedQueries)/n)
	m.set("core.candidates_per_query", seen/n)
	m.set("core.lb_skipped_ratio", ratio(lb, seen))
	m.set("core.early_abandoned_ratio", ratio(ea, seen))
	m.set("core.scored_per_query", (seen-lb-ea)/n)
	if a.router != nil && b.router != nil {
		m.set("router.bounds_propagated_per_query", float64(a.router.BoundsPropagated-b.router.BoundsPropagated)/n)
		m.set("router.hedges_per_query", float64(a.router.Hedges-b.router.Hedges)/n)
		var p50, p95 float64
		for _, ns := range a.router.Nodes {
			p50 += ns.RTTP50MS / float64(len(a.router.Nodes))
			p95 = max(p95, ns.RTTP95MS)
		}
		m.set("router.node_rtt_p50_ms", p50)
		m.set("router.node_rtt_p95_ms", p95)
	}
	m.set("process.cpu_ms_per_query", ms(a.cpu-b.cpu)/n)
	m.set("process.allocs_per_query", float64(a.mallocs-b.mallocs)/n)
	m.set("process.gc_pause_ms_total", ms(a.gcPause-b.gcPause))
}
