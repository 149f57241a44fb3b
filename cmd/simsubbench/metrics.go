package main

// metricDef names one reported metric. The two tables below are the
// program's side of BENCHMARK.json: the smoke test fails when they and the
// file disagree, so a metric cannot be renamed on one side only.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// e2eMetrics are what a user of the system sees; every workload emits all
// of them (--trace 0).
var e2eMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_qps", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p95_ms", "ms", "lower"},
	{"approx_ratio", "ratio", "lower"},
	{"mean_rank", "rank", "lower"},
	{"recall_at_k", "ratio", "higher"},
	{"ingest_records_per_s", "1/s", "higher"},
	{"recover_s", "s", "lower"},
	{"disk_bytes_per_point", "B", "lower"},
	{"heap_after_load_mb", "MB", "lower"},
}

// layerMetrics are the per-layer ledger (--trace 1), named
// <module>.<metric>. A metric a workload does not exercise reads 0.
var layerMetrics = []metricDef{
	{"client.query_ms", "ms", "lower"},
	{"client.self_ms", "ms", "lower"},
	{"router.query_ms", "ms", "lower"},
	{"router.self_ms", "ms", "lower"},
	{"router.node_rtt_p50_ms", "ms", "lower"},
	{"router.node_rtt_p95_ms", "ms", "lower"},
	{"router.bounds_propagated_per_query", "ratio", "higher"},
	{"router.hedges_per_query", "ratio", "lower"},
	{"router.load_ms_per_batch", "ms", "lower"},
	{"server.query_ms", "ms", "lower"},
	{"server.self_ms", "ms", "lower"},
	{"server.request_bytes_per_query", "B", "lower"},
	{"server.response_bytes_per_query", "B", "lower"},
	{"server.load_stream_ms_per_post", "ms", "lower"},
	{"api.decode_us_per_query", "us", "lower"},
	{"api.encode_us_per_response", "us", "lower"},
	{"traj.ndjson_decode_us_per_record", "us", "lower"},
	{"engine.query_ms", "ms", "lower"},
	{"engine.cache_hit_ratio", "ratio", "higher"},
	{"engine.queue_wait_ms", "ms", "lower"},
	{"engine.shed_per_query", "ratio", "lower"},
	{"engine.deadline_rejects_per_query", "ratio", "lower"},
	{"engine.degraded_per_query", "ratio", "lower"},
	{"engine.add_ms_per_batch", "ms", "lower"},
	{"engine.add_growth_ratio", "ratio", "lower"},
	{"engine.attach_ms", "ms", "lower"},
	{"core.scan_ms", "ms", "lower"},
	{"core.candidates_per_query", "count", "lower"},
	{"core.lb_skipped_ratio", "ratio", "higher"},
	{"core.early_abandoned_ratio", "ratio", "higher"},
	{"core.scored_per_query", "count", "lower"},
	{"core.search_us_per_pair.exacts", "us", "lower"},
	{"core.search_us_per_pair.pss", "us", "lower"},
	{"core.search_us_per_pair.pos", "us", "lower"},
	{"core.search_us_per_pair.rls-skip", "us", "lower"},
	{"sim.dist_ns_per_cell.dtw", "ns", "lower"},
	{"sim.dist_ns_per_cell.frechet", "ns", "lower"},
	{"sim.lb_ns_per_call", "ns", "lower"},
	{"sim.lb_tightness", "ratio", "higher"},
	{"sim.extend_ns_per_step", "ns", "lower"},
	{"rl.table_ns_per_decision", "ns", "lower"},
	{"rl.net_ns_per_decision", "ns", "lower"},
	{"rl.skipped_fraction", "ratio", "higher"},
	{"rl.train_s", "s", "lower"},
	{"rl.compile_ms", "ms", "lower"},
	{"nn.infer_ns_per_call", "ns", "lower"},
	{"ann.search_us_per_query", "us", "lower"},
	{"ann.candidate_fraction", "ratio", "lower"},
	{"ann.recall_at_k", "ratio", "higher"},
	{"ann.build_ms", "ms", "lower"},
	{"t2vec.embed_us_per_traj", "us", "lower"},
	{"t2vec.train_s", "s", "lower"},
	{"index.build_ms", "ms", "lower"},
	{"index.query_us", "us", "lower"},
	{"index.filter_selectivity", "ratio", "lower"},
	{"storage.append_us_per_record", "us", "lower"},
	{"storage.sync_ms", "ms", "lower"},
	{"storage.snapshot_ms", "ms", "lower"},
	{"storage.open_ms", "ms", "lower"},
	{"storage.replayed_records", "count", "lower"},
	{"storage.snapshotted_records", "count", "higher"},
	{"storage.bytes_per_point", "B", "lower"},
	{"storage.failed_ops", "count", "lower"},
	{"process.cpu_ms_per_query", "ms", "lower"},
	{"process.allocs_per_query", "count", "lower"},
	{"process.gc_pause_ms_total", "ms", "lower"},
	{"harness.calib_ms", "ms", "lower"},
	{"harness.client_overhead_us", "us", "lower"},
	{"harness.trace_overhead_pct", "%", "lower"},
	{"harness.ladder_vs_run_pct", "%", "lower"},
	{"harness.error_rate", "ratio", "lower"},
}

// metric is one reported value in the shape the driver reads.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values against a definition table and refuses names
// the table does not hold, so a typo cannot silently drop a metric.
type metricSet struct {
	defs map[string]metricDef
	vals map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	m := &metricSet{defs: map[string]metricDef{}, vals: map[string]float64{}}
	for _, d := range defs {
		m.defs[d.Name] = d
	}
	return m
}

func (m *metricSet) set(name string, v float64) {
	if _, ok := m.defs[name]; !ok {
		panic("simsubbench: metric " + name + " is not in the definition table")
	}
	m.vals[name] = v
}

// wire renders every defined metric (unset ones as 0) for the result line.
func (m *metricSet) wire() map[string]metric {
	out := make(map[string]metric, len(m.defs))
	for name, d := range m.defs {
		out[name] = metric{Value: m.vals[name], Unit: d.Unit}
	}
	return out
}
