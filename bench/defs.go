package main

// metricDef is one row of BENCHMARK.json: the tables below are the code's
// copy of it, and TestBenchmarkJSONAgrees keeps the two identical.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the numbers a user of the simulator or the daemon sees. A
// "sweep" is one pass over an engine workload's fixed spec list, or one
// submit → result round trip on a daemon workload. Bound is the share of
// the parent's median by which a later change may worsen the metric.
//
// sweep_p25_ms is the lower quartile of the per-sweep times, not their
// median: every timed sweep repeats identical work, so anything above the
// fastest repetitions is the shared box's other tenants, whose load moves a
// median by tens of percent for minutes at a time (README, "Noise"). The
// median, quartiles and sample count are printed beside it.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"sweep_p25_ms", "ms", lower, 0.25},
	{"peak_rss_mb", "MB", lower, 0.25},
}

// perLayer is the ledger: exact counts read after a run (simulated, so two
// commits compare exactly), unit costs from the micro-drivers in ledger*.go,
// and values derived from the two. Layer = package name.
var perLayer = []metricDef{
	// sim
	{Name: "sim.events", Unit: "count", Better: lower},
	{Name: "sim.events_per_s", Unit: "1/s", Better: higher},
	{Name: "sim.event_ns.pending64", Unit: "ns", Better: lower},
	{Name: "sim.event_ns.pending10k", Unit: "ns", Better: lower},
	{Name: "sim.event_ns.pending1M", Unit: "ns", Better: lower},
	{Name: "sim.cancel_ns", Unit: "ns", Better: lower},
	// pkt
	{Name: "pkt.pool_gets", Unit: "count", Better: lower},
	{Name: "pkt.getput_ns", Unit: "ns", Better: lower},
	// netdev
	{Name: "netdev.tx_packets", Unit: "count", Better: lower},
	{Name: "netdev.pfc_frames", Unit: "count", Better: lower},
	{Name: "netdev.hop_ns", Unit: "ns", Better: lower},
	// switchsim
	{Name: "switchsim.rx_packets", Unit: "count", Better: lower},
	{Name: "switchsim.pause_frames", Unit: "count", Better: lower},
	{Name: "switchsim.lossy_drops", Unit: "count", Better: lower},
	{Name: "switchsim.ecn_marked", Unit: "count", Better: lower},
	{Name: "switchsim.evictions", Unit: "count", Better: lower},
	{Name: "switchsim.admit_ns.DT", Unit: "ns", Better: lower},
	{Name: "switchsim.admit_ns.L2BM", Unit: "ns", Better: lower},
	{Name: "switchsim.admit_ns.ABM", Unit: "ns", Better: lower},
	{Name: "switchsim.admit_ns.Occamy", Unit: "ns", Better: lower},
	{Name: "switchsim.admit_traced_ns.L2BM", Unit: "ns", Better: lower},
	// core
	{Name: "core.threshold_ns.DT", Unit: "ns", Better: lower},
	{Name: "core.threshold_ns.L2BM", Unit: "ns", Better: lower},
	{Name: "core.threshold_ns.ABM", Unit: "ns", Better: lower},
	{Name: "core.threshold_ns.Occamy", Unit: "ns", Better: lower},
	{Name: "core.sojourn_update_ns", Unit: "ns", Better: lower},
	{Name: "core.sweep_wall_s.L2BM", Unit: "s", Better: lower},
	{Name: "core.sweep_wall_s.DT", Unit: "s", Better: lower},
	{Name: "core.rdma_p99_l2bm_over_dt", Unit: "ratio", Better: lower},
	// transports, host, workload
	{Name: "dctcp.ack_ns", Unit: "ns", Better: lower},
	{Name: "dctcp.ooo_data_ns", Unit: "ns", Better: lower},
	{Name: "dcqcn.pkt_ns", Unit: "ns", Better: lower},
	{Name: "dcqcn.cnp_ns", Unit: "ns", Better: lower},
	{Name: "host.deliver_ns", Unit: "ns", Better: lower},
	{Name: "host.flows_completed", Unit: "count", Better: higher},
	{Name: "workload.arrival_ns", Unit: "ns", Better: lower},
	// topo
	{Name: "topo.build_s.small", Unit: "s", Better: lower},
	{Name: "topo.build_s.10k", Unit: "s", Better: lower},
	{Name: "topo.bytes_per_host.10k", Unit: "B", Better: lower},
	// observers and export
	{Name: "metrics.collect_ms", Unit: "ms", Better: lower},
	{Name: "trace.record_ns", Unit: "ns", Better: lower},
	{Name: "trace.events_recorded", Unit: "count", Better: lower},
	{Name: "colfmt.write_mb_per_s", Unit: "MB/s", Better: higher},
	{Name: "colfmt.bytes_per_point", Unit: "B", Better: lower},
	{Name: "audit.sweep_us", Unit: "us", Better: lower},
	{Name: "audit.checks", Unit: "count", Better: lower},
	// fluid
	{Name: "fluid.flows", Unit: "count", Better: higher},
	{Name: "fluid.steps", Unit: "count", Better: lower},
	{Name: "fluid.packet_segments", Unit: "count", Better: lower},
	{Name: "fluid.sim_time_share", Unit: "ratio", Better: higher},
	{Name: "fluid.advance_us_per_step", Unit: "us", Better: lower},
	{Name: "fluid.speedup_x", Unit: "ratio", Better: higher},
	{Name: "fluid.fidelity_p99_rel_err", Unit: "ratio", Better: lower},
	// psim
	{Name: "psim.shards1_wall_ratio", Unit: "ratio", Better: lower},
	{Name: "psim.shards2_wall_ratio", Unit: "ratio", Better: lower},
	// exp
	{Name: "exp.sweep_wall_s", Unit: "s", Better: lower},
	{Name: "exp.sweeps_per_s", Unit: "1/s", Better: higher},
	{Name: "exp.seeded_over_fixed", Unit: "ratio", Better: lower},
	{Name: "exp.assemble_ms", Unit: "ms", Better: lower},
	{Name: "exp.marshal_us", Unit: "us", Better: lower},
	{Name: "exp.parse_us", Unit: "us", Better: lower},
	{Name: "exp.cache_get_us", Unit: "us", Better: lower},
	{Name: "exp.cache_put_us", Unit: "us", Better: lower},
	{Name: "exp.pool_overhead_us", Unit: "us", Better: lower},
	{Name: "exp.alloc_mb_per_sweep", Unit: "MB", Better: lower},
	{Name: "exp.allocs_per_event", Unit: "ratio", Better: lower},
	// serve
	{Name: "serve.submit_ms", Unit: "ms", Better: lower},
	{Name: "serve.wait_ms", Unit: "ms", Better: lower},
	{Name: "serve.result_ms", Unit: "ms", Better: lower},
	{Name: "serve.queue_wait_ms", Unit: "ms", Better: lower},
	{Name: "serve.sweep_tail_ms", Unit: "ms", Better: lower},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: higher},
	{Name: "serve.rejected_429", Unit: "count", Better: lower},
	{Name: "serve.result_bytes", Unit: "B", Better: lower},
	{Name: "serve.rss_growth_kb_per_sweep", Unit: "kB", Better: lower},
	// where a packet-hop's time goes (engine workloads; sums to 1)
	{Name: "share.sim", Unit: "ratio", Better: lower},
	{Name: "share.netdev", Unit: "ratio", Better: lower},
	{Name: "share.switchsim", Unit: "ratio", Better: lower},
	{Name: "share.core", Unit: "ratio", Better: lower},
	{Name: "share.transport", Unit: "ratio", Better: lower},
	{Name: "share.unattributed", Unit: "ratio", Better: lower},
	// the traced pass itself
	{Name: "trace_overhead_pct", Unit: "%", Better: lower},
}

// workloadDef is one row of BENCHMARK.json's workloads.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}
