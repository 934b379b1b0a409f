package main

// metricSpec names one metric of the result line. BENCHMARK.json lists the
// same metrics; main_test.go keeps the two in step.
type metricSpec struct {
	name, unit, better string
	// moves is, for a per-layer metric, the end-to-end metric it should
	// move and the workload where its layer does the work.
	moves string
}

// endToEnd are the metrics a user of the cluster sees that the result line
// carries, from the untraced run. read_p99_us and write_p99_us are printed
// beside them but left out: a garbage-collection cycle or the hypervisor
// taking the CPUs decides them, and across ten seeds on a 2-CPU virtual
// machine their spread was three times the largest bound a metric may have.
var endToEnd = []metricSpec{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "ops_s", unit: "ops/s", better: "higher"},
	{name: "read_p50_us", unit: "us", better: "lower"},
	{name: "write_p50_us", unit: "us", better: "lower"},
	{name: "cpu_us_per_op", unit: "us", better: "lower"},
	{name: "rss_peak_mb", unit: "MB", better: "lower"},
}

// perLayer are the traced run's metrics, each with the end-to-end metric
// it should move. Spans are taken at the layers' public interfaces from
// outside: the core protocol and shard queueing are not split apart.
var perLayer = []metricSpec{
	{"client.do_us.p50", "us", "lower", "ops_s on all workloads: time inside Client.Do, encoding plus waiting on the window"},
	{"client.do_us.p99", "us", "lower", "ops_s on all workloads"},
	{"server.fast_read_ratio", "ratio", "higher", "read_p99_us on hot-keys; near 1 on write-heavy"},
	{"server.sessions_killed", "count", "lower", "must be 0: a killed session is a failure"},
	{"cluster.read_local_ns.p50", "ns", "lower", "cpu_us_per_op and read_p50_us on read-mostly: kvs and the read gate"},
	{"cluster.read_local_ns.p99", "ns", "lower", "cpu_us_per_op and read_p50_us on read-mostly"},
	{"cluster.read_hit_ratio", "ratio", "higher", "read_p99_us on hot-keys; at least 0.99 on write-heavy"},
	{"cluster.update_us.p50", "us", "lower", "write_p50_us on write-heavy and hot-keys: shard queueing plus the INV-ACK round"},
	{"cluster.update_us.p99", "us", "lower", "write_p99_us on write-heavy and hot-keys"},
	{"cluster.fallback_read_us.p50", "us", "lower", "read_p99_us on hot-keys: reads that missed ReadLocal"},
	{"cluster.fallback_read_us.p99", "us", "lower", "read_p99_us on hot-keys"},
	{"cluster.fallback_read.calls", "count", "lower", "read_p99_us on hot-keys; almost none on write-heavy"},
	{"cluster.deliver_us.p50", "us", "lower", "ops_s and cpu_us_per_op on write-heavy: inbound dispatch"},
	{"cluster.deliver_us.p99", "us", "lower", "ops_s and cpu_us_per_op on write-heavy"},
	{"cluster.deliver.calls", "count", "lower", "ops_s and cpu_us_per_op on write-heavy"},
	{"cluster.coalesce.msgs_per_batch", "msgs", "higher", "ops_s and cpu_us_per_op on write-heavy: egress batching"},
	{"cluster.coalesce.dropped", "count", "lower", "ops_s on write-heavy: messages shed by full coalescer buffers"},
	{"cluster.shard_load_max_over_mean", "ratio", "lower", "ops_s and cpu_us_per_op on write-heavy: balance across shards"},
	{"transport.send_us.p50", "us", "lower", "write_p99_us on write-heavy: credit waits show here"},
	{"transport.send_us.p99", "us", "lower", "write_p99_us on write-heavy"},
	{"transport.msgs_per_update", "msgs", "lower", "cpu_us_per_op and ops_s on write-heavy: 6 at 3 replicas, more is retransmission or replay (over updates that replicate: a CAS whose comparand fails sends nothing)"},
	{"transport.msgs_per_update.inv", "msgs", "lower", "cpu_us_per_op and ops_s on write-heavy"},
	{"transport.msgs_per_update.ack", "msgs", "lower", "cpu_us_per_op and ops_s on write-heavy"},
	{"transport.msgs_per_update.val", "msgs", "lower", "cpu_us_per_op and ops_s on write-heavy"},
	{"transport.msgs_per_update.other", "msgs", "lower", "cpu_us_per_op and ops_s on write-heavy"},
	{"transport.envelopes_per_update", "envelopes", "lower", "cpu_us_per_op and ops_s on write-heavy: transport Sends per update"},
	{"transport.bytes_per_update", "bytes", "lower", "cpu_us_per_op and ops_s on write-heavy: wings.Encode size of what is sent"},
	{"proc.allocs_per_op", "allocs", "lower", "cpu_us_per_op on every workload (untraced closed loop, whole process)"},
	{"proc.gc_per_kop", "gc/kop", "lower", "cpu_us_per_op on every workload (untraced closed loop)"},
	{"gen.late_us.p99", "us", "lower", "validity signal, not a gain: open-loop generator lateness, time blocked in Do excluded"},
	{"gen.late_us.max", "us", "lower", "validity signal, not a gain"},
	{"trace.ops_s_untraced", "ops/s", "higher", "reference for the tracing overhead"},
	{"trace.ops_s_traced", "ops/s", "higher", "closed-loop ops_s with every layer wrapped"},
	{"trace.overhead", "ratio", "lower", "cost of the wrappers: 1 - traced/untraced ops_s"},
}
