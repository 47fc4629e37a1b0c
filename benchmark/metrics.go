package main

// metricDef names one metric the benchmark prints. ../BENCHMARK.json lists
// the same names, units and directions (a test holds the two together)
// and adds the regression bounds.
type metricDef struct {
	name, unit, better string
}

// exactCounts are the end-to-end metrics that repeat to the last digit on
// the same seed; -agree checks them for equality, not against a bound.
var exactCounts = map[string]bool{"disk_bytes_per_update": true}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the system sees, measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", lower},
	{"point_p50_us", "us", lower},
	{"batch_qps", "1/s", higher},
	{"match_p50_ms", "ms", lower},
	{"write_p50_ms", "ms", lower},
	{"visible_p50_ms", "ms", lower},
	{"recover_s", "s", lower},
	{"disk_bytes_per_update", "B", lower},
	{"heap_live_mb", "MB", lower},
}

// perLayer is what the traced pass measures, one layer at a time, by
// timing public calls on the workload's own inputs. A layer that is not on
// a workload's path reports 0 there.
var perLayer = []metricDef{
	{"graph.freeze_ms", "ms", lower},
	{"graph.reorder_ms", "ms", lower},
	{"graph.scc_ms", "ms", lower},

	{"reach.compress_ms", "ms", lower},
	{"reach.rc_ratio", "ratio", lower},
	{"reach.compress_growth", "ratio", lower},

	{"bisim.compress_ms", "ms", lower},
	{"bisim.pc_ratio", "ratio", lower},

	{"increach.apply_ms", "ms", lower},
	{"increach.aff_per_batch", "count", lower},
	{"increach.us_per_aff", "us", lower},
	{"increach.redundant_share", "ratio", higher},

	{"incbisim.apply_ms", "ms", lower},
	{"incbisim.dirty_per_batch", "count", lower},
	{"incbisim.changed_blocks_per_batch", "count", lower},

	{"hop2.build_gr_ms", "ms", lower},
	{"hop2.entries", "count", lower},
	{"hop2.mem_mb", "MB", lower},
	{"hop2.probe_ns", "ns", lower},
	{"hop2.peeled_share", "ratio", higher},

	{"queries.bibfs_gr_ns", "ns", lower},
	{"queries.bibfs_g_ns", "ns", lower},
	{"queries.batch_gr_ns_per_pair", "ns", lower},

	{"pattern.match_gr_ms", "ms", lower},
	{"pattern.match_g_ms", "ms", lower},
	{"pattern.expand_ms", "ms", lower},
	{"pattern.gr_speedup", "ratio", higher},

	{"store.open_ms", "ms", lower},
	{"store.apply_mem_ms", "ms", lower},
	{"store.publish_self_ms", "ms", lower},
	{"store.apply_growth", "ratio", lower},
	{"store.durable_self_ms", "ms", lower},
	{"store.gr_speedup", "ratio", higher},
	{"store.point_ns", "ns", lower},
	{"store.batch_scaling", "ratio", higher},
	{"store.sched_mean_wave", "count", higher},
	{"store.sched_cluster_hit", "ratio", higher},
	{"store.hubcache_hit", "ratio", higher},
	{"store.checkpoint_ms", "ms", lower},
	{"store.recover_snapshot_ms", "ms", lower},
	{"store.recover_replay_ms_per_batch", "ms", lower},

	{"part.open_ms", "ms", lower},
	{"part.cut_share", "ratio", lower},
	{"part.cross_updates_share", "ratio", lower},
	{"part.apply_mem_ms", "ms", lower},
	{"part.point_ns", "ns", lower},
	{"part.batch_ns_per_pair", "ns", lower},

	{"wal.append_us", "us", lower},
	{"wal.sync_us", "us", lower},
	{"wal.bytes_per_update", "B", lower},
	{"wal.replay_us_per_record", "us", lower},

	{"snapfile.encode_ms", "ms", lower},
	{"snapfile.write_ms", "ms", lower},
	{"snapfile.load_ms", "ms", lower},
	{"snapfile.bytes_per_edge", "B", lower},

	{"disk.writes_per_batch", "count", lower},
	{"disk.bytes_per_batch", "B", lower},
	{"disk.syncs_per_batch", "count", lower},
	{"disk.sync_share", "ratio", lower},

	{"server.ping_us", "us", lower},
	{"server.point_overhead_us", "us", lower},
	{"server.batch_overhead_us", "us", lower},
	{"server.conn_scaling", "ratio", higher},
	{"server.apply_overhead_ms", "ms", lower},
	{"server.ryw_leader_us", "us", lower},

	{"replica.bootstrap_ms", "ms", lower},
	{"replica.lag_epochs_p50", "count", lower},
	{"replica.lag_epochs_max", "count", lower},
	{"replica.catchup_ms_per_batch", "ms", lower},
	{"replica.resyncs", "count", lower},
	{"replica.quarantines", "count", lower},

	{"obs.overhead_pct", "%", lower},

	{"trace.overhead_pct", "%", lower},
	{"trace.unattributed_share", "ratio", lower},

	// The load generator's rates and tails, from the traced pass's slices
	// that record no spans. They do not repeat within a bound on a shared
	// host, so they are not end-to-end metrics.
	{"client.point_qps", "1/s", higher},
	{"client.point_p99_us", "us", lower},
	{"client.batch_qps", "1/s", higher},
	{"client.match_per_s", "1/s", higher},
	{"client.write_batches_per_s", "1/s", higher},
	{"client.write_p90_ms", "ms", lower},
	{"client.visible_p90_ms", "ms", lower},
}
