package main

// metricSpec names one metric. BENCHMARK.json lists the same names, units
// and directions; a test keeps the two equal.
type metricSpec struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end: share of the parent's median it may worsen by
	// moves (per-layer) is the end-to-end metric and workload this layer
	// metric should move, written before measuring, as metric@workload;
	// "-" when no end-to-end metric includes the call.
	moves string
	// exact marks a count that repeats exactly for a seed: two runs of
	// the same code must report the same value.
	exact bool
}

// Every workload reports every end-to-end metric; what "op" and "unit"
// mean is fixed per workload (see the workload types and README.md).
var endToEndMetrics = []metricSpec{
	{name: "op_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "op_p75_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "units_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

var perLayerMetrics = []metricSpec{
	{name: "lzf.compress_ns_per_page", unit: "ns", better: "lower", moves: "units_per_s@detach-upload"},
	{name: "lzf.compress_raw_ns_per_page", unit: "ns", better: "lower", moves: "units_per_s@detach-upload"},
	{name: "lzf.decompress_ns_per_page", unit: "ns", better: "lower", moves: "units_per_s@reattach-serve"},
	{name: "lzf.ratio", unit: "ratio", better: "higher", moves: "units_per_s@detach-upload", exact: true},
	{name: "lzf.allocs_per_page", unit: "count", better: "lower", moves: "units_per_s@detach-upload"},

	{name: "pagestore.encode_all_ns_per_page", unit: "ns", better: "lower", moves: "units_per_s@detach-upload"},
	{name: "pagestore.encode_diff_ns_per_page", unit: "ns", better: "lower", moves: "op_p50_ms@detach-upload"},
	{name: "pagestore.apply_ns_per_page", unit: "ns", better: "lower", moves: "units_per_s@detach-upload"},
	{name: "pagestore.partition_ns_per_page", unit: "ns", better: "lower", moves: "units_per_s@fabric-r2"},
	{name: "pagestore.snapshot_bytes_per_page", unit: "B", better: "lower", moves: "units_per_s@detach-upload"},
	{name: "pagestore.encode_alloc_bytes_per_page", unit: "B", better: "lower", moves: "units_per_s@detach-upload"},

	{name: "hypervisor.fault_self_us", unit: "us", better: "lower", moves: "op_p50_ms@reattach-serve"},
	{name: "hypervisor.install_ns_per_page", unit: "ns", better: "lower", moves: "units_per_s@reattach-serve"},
	{name: "hypervisor.absent_scan_ns_per_kpage", unit: "ns", better: "lower", moves: "units_per_s@reattach-serve"},
	{name: "hypervisor.dirty_snapshot_ns_per_page", unit: "ns", better: "lower", moves: "op_p50_ms@vdi-cycle"},

	{name: "memserver.get_page_us", unit: "us", better: "lower", moves: "op_p50_ms@reattach-serve"},
	{name: "memserver.get_page_p99_us", unit: "us", better: "lower", moves: "-"},
	{name: "memserver.get_page_wire_us", unit: "us", better: "lower", moves: "op_p50_ms@reattach-serve"},
	{name: "memserver.get_page_decompress_us", unit: "us", better: "lower", moves: "op_p50_ms@reattach-serve"},
	{name: "memserver.get_pages_ns_per_page", unit: "ns", better: "lower", moves: "units_per_s@reattach-serve"},
	{name: "memserver.put_image_ns_per_page", unit: "ns", better: "lower", moves: "units_per_s@detach-upload"},
	{name: "memserver.put_diff_ns_per_page", unit: "ns", better: "lower", moves: "op_p50_ms@detach-upload"},
	{name: "memserver.upload_pages_per_s", unit: "1/s", better: "higher", moves: "units_per_s@detach-upload"},
	{name: "memserver.server_busy_share", unit: "ratio", better: "lower", moves: "units_per_s@detach-upload"},
	{name: "memserver.wire_bytes_per_page_up", unit: "B", better: "lower", moves: "units_per_s@detach-upload"},
	{name: "memserver.wire_bytes_per_page_down", unit: "B", better: "lower", moves: "units_per_s@reattach-serve"},
	{name: "memserver.dial_us", unit: "us", better: "lower", moves: "op_p50_ms@vdi-cycle"},
	{name: "memserver.retries", unit: "count", better: "lower", moves: "op_p75_ms@reattach-serve", exact: true},
	{name: "memserver.stream_image_pages_per_s", unit: "1/s", better: "higher", moves: "-"},

	{name: "shard.put_image_ns_per_page", unit: "ns", better: "lower", moves: "units_per_s@fabric-r2"},
	{name: "shard.put_diff_ns_per_page", unit: "ns", better: "lower", moves: "units_per_s@fabric-r2"},
	{name: "shard.upload_pages_per_s", unit: "1/s", better: "higher", moves: "units_per_s@fabric-r2"},
	{name: "shard.get_page_us", unit: "us", better: "lower", moves: "op_p50_ms@fabric-r2"},
	{name: "shard.get_page_p99_us", unit: "us", better: "lower", moves: "-"},
	{name: "shard.get_pages_ns_per_page", unit: "ns", better: "lower", moves: "-"},
	{name: "shard.write_amplification", unit: "ratio", better: "lower", moves: "units_per_s@fabric-r2"},
	{name: "shard.backend_skew", unit: "ratio", better: "lower", moves: "units_per_s@fabric-r2"},
	{name: "shard.tax_ratio", unit: "ratio", better: "lower", moves: "units_per_s@fabric-r2"},
	{name: "shard.failover_reads", unit: "count", better: "lower", moves: "op_p75_ms@fabric-r2"},
	{name: "shard.underreplicated_ranges", unit: "count", better: "lower", moves: "op_p75_ms@fabric-r2"},

	{name: "memtap.fetch_self_us", unit: "us", better: "lower", moves: "op_p50_ms@reattach-serve"},
	{name: "memtap.prefetch_self_share", unit: "ratio", better: "lower", moves: "units_per_s@reattach-serve"},
	{name: "memtap.new_us", unit: "us", better: "lower", moves: "op_p50_ms@vdi-cycle"},
	{name: "memtap.zero_elided_pages", unit: "count", better: "higher", moves: "units_per_s@reattach-serve", exact: true},
	{name: "memtap.deduped_faults", unit: "count", better: "lower", moves: "op_p50_ms@reattach-serve", exact: true},
	{name: "memtap.prefetch_reorders", unit: "count", better: "higher", moves: "units_per_s@reattach-serve"},
	{name: "memtap.prefetch_pooled_pages_per_s", unit: "1/s", better: "higher", moves: "-"},

	{name: "wire.call_us", unit: "us", better: "lower", moves: "op_p50_ms@vdi-cycle"},
	{name: "wire.page_call_us", unit: "us", better: "lower", moves: "op_p50_ms@vdi-cycle"},

	{name: "agent.partial_migrate_ms", unit: "ms", better: "lower", moves: "units_per_s@vdi-cycle"},
	{name: "agent.first_detach_ms", unit: "ms", better: "lower", moves: "setup_s@vdi-cycle"},
	{name: "agent.read_page_us", unit: "us", better: "lower", moves: "op_p50_ms@vdi-cycle"},
	{name: "agent.read_page_present_us", unit: "us", better: "lower", moves: "op_p50_ms@vdi-cycle"},
	{name: "agent.reintegrate_ms", unit: "ms", better: "lower", moves: "op_p50_ms@vdi-cycle"},
	{name: "agent.suspend_wake_ms", unit: "ms", better: "lower", moves: "op_p50_ms@vdi-cycle"},
	{name: "agent.refresh_stats_ms", unit: "ms", better: "lower", moves: "-"},
	{name: "agent.overhead_share", unit: "ratio", better: "lower", moves: "op_p50_ms@vdi-cycle"},

	{name: "trace.user_day_ns", unit: "ns", better: "lower", moves: "units_per_s@fleet-sim"},
	{name: "cluster.tick_us", unit: "us", better: "lower", moves: "units_per_s@fleet-sim"},
	{name: "cluster.planner_picks", unit: "count", better: "lower", moves: "units_per_s@fleet-sim", exact: true},
	{name: "cluster.planner_candidates", unit: "count", better: "lower", moves: "units_per_s@fleet-sim", exact: true},
	{name: "cluster.migrations", unit: "count", better: "lower", moves: "units_per_s@fleet-sim", exact: true},
	{name: "sim.cell_ms", unit: "ms", better: "lower", moves: "units_per_s@fleet-sim"},
	{name: "sim.fleet_overhead_share", unit: "ratio", better: "lower", moves: "units_per_s@fleet-sim"},
	{name: "sim.worker_scaling", unit: "ratio", better: "higher", moves: "units_per_s@fleet-sim"},
	{name: "sim.alloc_bytes_per_user", unit: "B", better: "lower", moves: "units_per_s@fleet-sim"},
	{name: "sim.fingerprint_variants", unit: "count", better: "lower", moves: "-"},

	{name: "telemetry.counter_inc_ns", unit: "ns", better: "lower", moves: "op_p50_ms@reattach-serve"},
	{name: "telemetry.span_ns", unit: "ns", better: "lower", moves: "op_p50_ms@reattach-serve"},

	{name: "bench.trace_overhead_share", unit: "ratio", better: "lower", moves: "-"},
}
