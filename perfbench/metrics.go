package main

// metricDef declares one reported metric. The tables below must match
// BENCHMARK.json at the checkout root (a test checks it).
type metricDef struct {
	name, unit, better string
}

// endToEnd metrics come from plain runs, on every workload. README.md
// says what each one measures on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_s", "1/s", "higher"},
	{"read_p50_us", "us", "lower"},
	{"read_p90_us", "us", "lower"},
	{"write_p50_us", "us", "lower"},
	{"write_p90_us", "us", "lower"},
	{"ttft_ms", "ms", "lower"},
	{"rss_mb", "MB", "lower"},
}

// perLayer metrics come from the traced run, on every workload; a layer
// a workload does not exercise reports 0.
var perLayer = []metricDef{
	{"nvm.main_lines_per_op", "count", "lower"},
	{"nvm.backup_lines_per_op", "count", "lower"},
	{"nvm.log_lines_per_op", "count", "lower"},
	{"nvm.main_fences_per_op", "count", "lower"},
	{"nvm.backup_fences_per_op", "count", "lower"},
	{"nvm.log_fences_per_op", "count", "lower"},
	{"nvm.model_us_per_op", "us", "lower"},
	{"nvm.persist_overshoot_1line", "ratio", "lower"},
	{"nvm.persist_overshoot_16line", "ratio", "lower"},

	{"intentlog.intent_persist_us", "us", "lower"},
	{"intentlog.commit_persist_us", "us", "lower"},
	{"intentlog.append_commit_ns", "ns", "lower"},

	{"locktable.dependent_waits_per_txn", "count", "lower"},
	{"locktable.dependent_stall_p50_us", "us", "lower"},
	{"locktable.dependent_stall_p99_us", "us", "lower"},
	{"locktable.lock_unlock_ns", "ns", "lower"},

	{"heap.heap_persist_us", "us", "lower"},
	{"heap.reserve_commit_ns", "ns", "lower"},
	{"heap.bump_mb_per_s", "MB/s", "higher"},

	{"engine.backup_sync_us", "us", "lower"},
	{"engine.backup_lag_us", "us", "lower"},
	{"engine.bytes_copied_async_per_txn", "bytes", "lower"},
	{"engine.aborts_per_txn", "count", "lower"},
	{"engine.backup_queue_depth_max", "count", "lower"},
	{"engine.critical_us_per_txn", "us", "lower"},

	{"pbtree.self_us", "us", "lower"},
	{"tpcc.self_us", "us", "lower"},
	{"trace.joined_txns", "count", "higher"},

	{"server.decode_p50_us", "us", "lower"},
	{"server.decode_p99_us", "us", "lower"},
	{"server.admission_wait_p50_us", "us", "lower"},
	{"server.admission_wait_p99_us", "us", "lower"},
	{"server.batch_wait_p50_us", "us", "lower"},
	{"server.batch_wait_p99_us", "us", "lower"},
	{"server.engine_txn_p50_us", "us", "lower"},
	{"server.engine_txn_p99_us", "us", "lower"},
	{"server.order_wait_p50_us", "us", "lower"},
	{"server.order_wait_p99_us", "us", "lower"},
	{"server.net_queue_p50_us", "us", "lower"},
	{"server.net_queue_p99_us", "us", "lower"},
	{"server.batch_ops", "count", "higher"},
	{"server.shed_frac", "ratio", "lower"},

	{"kvwire.encode_ns", "ns", "lower"},
	{"kvwire.decode_ns", "ns", "lower"},
	{"kvwire.bytes_per_req", "bytes", "lower"},

	{"client.rate_p50_us", "us", "lower"},
	{"client.sched_lag_p50_us", "us", "lower"},
	{"client.sched_lag_p99_us", "us", "lower"},
	{"client.send_us", "us", "lower"},

	{"recovery.crash_us", "us", "lower"},
	{"recovery.rescan_us", "us", "lower"},
	{"recovery.log_replay_us", "us", "lower"},
	{"recovery.index_attach_us", "us", "lower"},
	{"recovery.warmup_us", "us", "lower"},
	{"recovery.unattributed_us", "us", "lower"},
	{"recovery.open_us", "us", "lower"},
	{"recovery.first_txn_us", "us", "lower"},
	{"recovery.first_cycle_ms", "ms", "lower"},

	{"runtime.allocs_per_op", "count", "lower"},
	{"runtime.gc_pause_us_per_s", "us", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},

	{"tail.read_p99_us", "us", "lower"},
	{"tail.write_p99_us", "us", "lower"},
}

// zeroLayers gives a traced result every per-layer metric at 0, so the
// workload fills in only the layers it exercises.
func zeroLayers(r *result) {
	for _, m := range perLayer {
		r.set(m.name, 0, m.unit)
	}
}

// unitOf returns a declared metric's unit.
func unitOf(name string) string {
	for _, t := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range t {
			if m.name == name {
				return m.unit
			}
		}
	}
	panic("perfbench: undeclared metric " + name)
}

// put sets a declared metric by name.
func (r *result) put(name string, v float64) { r.set(name, v, unitOf(name)) }
