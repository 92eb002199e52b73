package main

// metricDef names one measurement. BENCHMARK.json repeats name, unit, better
// and bound (bench_test.go holds the two in step). What each per-layer metric
// times and which end-to-end metric it should move is in README.md.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the system sees; every workload reports all of
// them from its untraced run. A bound holds on every workload, so it is set by
// the workload on which the metric repeats worst (README, "Bounds").
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "calls_per_s", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "call_p50_us", Unit: "us", Better: lower, Bound: 0.25},
	{Name: "timely_frac", Unit: "fraction", Better: higher, Bound: 0.09},
	{Name: "mean_k", Unit: "replicas", Better: lower, Bound: 0.12},
	{Name: "served_per_call", Unit: "requests", Better: lower, Bound: 0.12},
	{Name: "allocs_per_call", Unit: "allocs", Better: lower, Bound: 0.15},
	{Name: "bytes_per_call", Unit: "B", Better: lower, Bound: 0.25},
	{Name: "cpu_us_per_call", Unit: "us", Better: lower, Bound: 0.25},
}

// perLayer lists the single-layer metrics, named <module>.<metric>. They
// carry no bound: they explain an end-to-end movement, they do not gate it.
var perLayer = []metricDef{
	// Probe stage: direct calls into one module's exported API on fixed inputs.
	{Name: "core.schedule_cached_us", Unit: "us", Better: lower},
	{Name: "core.schedule_cached_allocs", Unit: "allocs", Better: lower},
	{Name: "core.schedule_fresh_us", Unit: "us", Better: lower},
	{Name: "core.schedule_fresh_allocs", Unit: "allocs", Better: lower},
	{Name: "core.reply_us", Unit: "us", Better: lower},
	{Name: "core.reply_allocs", Unit: "allocs", Better: lower},
	{Name: "model.table_cached_us", Unit: "us", Better: lower},
	{Name: "model.table_fresh_us", Unit: "us", Better: lower},
	{Name: "model.table_fresh_allocs", Unit: "allocs", Better: lower},
	{Name: "selection.select_us", Unit: "us", Better: lower},
	{Name: "selection.select_allocs", Unit: "allocs", Better: lower},
	{Name: "repository.record_us", Unit: "us", Better: lower},
	{Name: "repository.snapshot_us", Unit: "us", Better: lower},
	{Name: "queue.enq_deq_us", Unit: "us", Better: lower},
	{Name: "queue.cancel_us", Unit: "us", Better: lower},
	{Name: "transport.inmem_rtt_us", Unit: "us", Better: lower},
	{Name: "transport.inmem_rtt_allocs", Unit: "allocs", Better: lower},
	{Name: "transport.tcp_rtt_us", Unit: "us", Better: lower},
	{Name: "transport.tcp_rtt_allocs", Unit: "allocs", Better: lower},
	{Name: "transport.tcp_send_us", Unit: "us", Better: lower},
	{Name: "transport.tcp_mcast3_us", Unit: "us", Better: lower},
	{Name: "transport.tcp_rtt_32k_us", Unit: "us", Better: lower},
	{Name: "transport.tcp_bytes_per_frame_32k", Unit: "B", Better: lower},
	{Name: "server.echo_rtt_us", Unit: "us", Better: lower},
	{Name: "server.echo_allocs", Unit: "allocs", Better: lower},
	{Name: "gateway.call_1r_us", Unit: "us", Better: lower},
	{Name: "gateway.call_1r_allocs", Unit: "allocs", Better: lower},

	// Counts per workload: read from outside during the untraced run.
	{Name: "transport.frames_per_call", Unit: "frames", Better: lower},
	{Name: "transport.encodes_per_call", Unit: "encodes", Better: lower},
	{Name: "transport.backpressure_drops", Unit: "count", Better: lower},
	{Name: "core.duplicates_per_call", Unit: "replies", Better: lower},
	{Name: "core.used_all_share", Unit: "fraction", Better: lower},
	{Name: "core.shed_share", Unit: "fraction", Better: lower},
	{Name: "core.predicted_mean", Unit: "fraction", Better: higher},
	{Name: "core.calibration_gap", Unit: "fraction", Better: lower},
	{Name: "gateway.cancels_per_call", Unit: "cancels", Better: higher},
	{Name: "server.purged_per_call", Unit: "requests", Better: higher},
	{Name: "server.aborted_per_call", Unit: "requests", Better: higher},
	{Name: "server.served_max_over_mean", Unit: "ratio", Better: lower},
	{Name: "gateway.refills_per_call", Unit: "frames", Better: lower},
	{Name: "gateway.err_dispatch_race", Unit: "count", Better: lower},
	{Name: "gateway.err_no_response", Unit: "count", Better: lower},
	{Name: "gateway.err_wrong_reply", Unit: "count", Better: lower},
	{Name: "loadgen.late_p50_us", Unit: "us", Better: lower},
	{Name: "loadgen.late_p99_us", Unit: "us", Better: lower},
	{Name: "loadgen.achieved_over_offered", Unit: "ratio", Better: higher},
	{Name: "loadgen.overflow", Unit: "count", Better: lower},
	{Name: "loadgen.held_frac", Unit: "fraction", Better: lower},
	{Name: "process.peak_rss_mb", Unit: "MiB", Better: lower},

	// Traced run: the paper's t0..t4 timeline rebuilt from spans recorded around
	// the endpoints handed to gateway and server.
	{Name: "gateway.pre_send_us_p50", Unit: "us", Better: lower},
	{Name: "gateway.pre_send_us_p99", Unit: "us", Better: lower},
	{Name: "core.delta_us_p50", Unit: "us", Better: lower},
	{Name: "core.delta_us_p99", Unit: "us", Better: lower},
	{Name: "transport.req_wire_us_p50", Unit: "us", Better: lower},
	{Name: "transport.req_wire_us_p99", Unit: "us", Better: lower},
	{Name: "queue.wait_us_p50", Unit: "us", Better: lower},
	{Name: "queue.wait_us_p99", Unit: "us", Better: lower},
	{Name: "server.service_us_p50", Unit: "us", Better: lower},
	{Name: "server.overhead_us_p50", Unit: "us", Better: lower},
	{Name: "server.overhead_us_p99", Unit: "us", Better: lower},
	{Name: "transport.reply_wire_us_p50", Unit: "us", Better: lower},
	{Name: "transport.reply_wire_us_p99", Unit: "us", Better: lower},
	{Name: "gateway.post_recv_us_p50", Unit: "us", Better: lower},
	{Name: "gateway.post_recv_us_p99", Unit: "us", Better: lower},
	{Name: "gateway.call_us_p50", Unit: "us", Better: lower},
	{Name: "gateway.call_us_p99", Unit: "us", Better: lower},
	{Name: "trace.stage_sum_frac", Unit: "ratio", Better: higher},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: lower},
}

// values maps metric name to measured value.
type values map[string]float64
