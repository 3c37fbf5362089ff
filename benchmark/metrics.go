package main

// metricDef names one metric and its unit. BENCHMARK.json declares the
// same names and units (a test keeps the two in step) and adds the
// direction and the regression bound of the end-to-end metrics.
type metricDef struct{ name, unit string }

// endToEndDefs are the metrics a user of the system would see. Failures
// are not in this list because they are no ratio to a parent's value: they
// are reported as failed/attempted beside the metrics, and must be 0.
// Open-loop latency is not in it because no bound holds it on the builder's
// machine (README.md, "Run-to-run spread"): load.lat_p50_ms and its kin.
var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"qps_closed", "q/s"},
	{"wire_bytes_per_query", "B"},
	{"mem_mb", "MiB"},
}

// perLayerDefs are the metrics of single layers, named <module>.<metric>.
// A metric that does not apply to a workload reads 0 there.
var perLayerDefs = []metricDef{
	// Set-up, by step.
	{"graph.build_ms", "ms"},
	{"fragment.partition_ms", "ms"},
	{"reachindex.build_ms", "ms"},
	{"reachindex.label_bytes", "B"},
	{"serve.boot_ms", "ms"},
	// The fragmentation: the paper's cost parameters.
	{"fragment.vf", "count"},
	{"fragment.cross_edges", "count"},
	{"fragment.max_size", "count"},
	{"fragment.vf_edgecut", "count"},
	{"fragment.apply_us", "us"},
	// Local evaluation and the partial answers it produces.
	{"core.local_eval_sum_us", "us"},
	{"core.local_eval_max_us", "us"},
	{"core.local_eval_noindex_sum_us", "us"},
	{"core.local_eval_sum_us.qr", "us"},
	{"core.local_eval_sum_us.qbr", "us"},
	{"core.local_eval_sum_us.qrr", "us"},
	{"core.eqs_per_query", "count"},
	{"core.partial_bytes", "B"},
	{"core.encode_us", "us"},
	{"core.decode_us", "us"},
	// The coordinator's equation solve.
	{"bes.solve_us", "us"},
	{"bes.vars_per_query", "count"},
	{"bes.edges_per_query", "count"},
	// The wire round.
	{"netsite.round_us", "us"},
	{"netsite.round_floor_us", "us"},
	{"netsite.overhead_us", "us"},
	{"netsite.round_strict_us", "us"},
	{"netsite.bytes_strict_per_query", "B"},
	{"netsite.frames_per_query", "count"},
	{"netsite.partial_frames_per_query", "count"},
	{"netsite.cancel_frames_per_query", "count"},
	{"netsite.early_term_ratio", "ratio"},
	{"netsite.bytes_sent_per_query", "B"},
	{"netsite.bytes_recv_per_query", "B"},
	{"netsite.first_answer_p50_us", "us"},
	// The reachability index under load.
	{"reachindex.probes_per_query", "count"},
	{"reachindex.hit_ratio", "ratio"},
	{"reachindex.rebuilds", "count"},
	// The gateway (gateway_hot only).
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.cache_evictions", "count"},
	{"serve.coalesce_mean_round", "count"},
	{"serve.rejected", "count"},
	{"serve.hit_lat_p50_us", "us"},
	{"serve.miss_lat_p50_us", "us"},
	{"serve.http_floor_us", "us"},
	{"qcache.get_hit_ns", "ns"},
	{"qcache.put_ns", "ns"},
	{"qcache.evict_fragments_us", "us"},
	{"obs.trace_qps_ratio", "ratio"},
	// The load generator itself.
	{"load.prep_s", "s"},
	{"load.clients", "count"},
	{"load.attempted", "count"},
	{"load.completed", "count"},
	{"load.errors", "count"},
	{"load.wrong", "count"},
	{"load.violations", "count"},
	{"load.fail_ratio", "ratio"},
	{"load.updates", "count"},
	{"load.update_p50_ms", "ms"},
	{"load.true_share", "ratio"},
	{"load.lateness_p99_ms", "ms"},
	{"load.lat_p50_ms", "ms"},
	{"load.lat_p95_ms", "ms"},
	{"load.lat_p99_ms", "ms"},
	{"load.lat_max_ms", "ms"},
	{"load.hi_p95_ms", "ms"},
	{"load.lat_p50_ms.qr", "ms"},
	{"load.lat_p50_ms.qbr", "ms"},
	{"load.lat_p50_ms.qrr", "ms"},
	{"load.round_spread", "ratio"},
	{"load.hi_backlog", "count"},
	{"load.trace_delta_us", "us"},
}

// metrics holds measured values by name.
type metrics map[string]float64

// metricValue is how a metric is written out.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// table renders the values of defs; a metric never measured reads 0.
func (m metrics) table(defs []metricDef) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: m[d.name], Unit: d.unit}
	}
	return out
}
