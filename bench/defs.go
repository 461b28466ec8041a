package main

import "dedupstore/internal/qos"

// e2eDef defines one end-to-end metric. clock says which clock it is read
// on: host-clock metrics are noisy and cost what a run costs; sim-clock
// metrics are the modelled system's and repeat exactly at one seed. bound is
// the share of the parent's median a later change may worsen it by; it also
// has to hold between two sets of runs over different seeds, so for
// sim-clock metrics it is set by the seed-to-seed spread, not by the (zero)
// run-to-run spread at one seed: three times the widest quartile distance
// seen over ten-seed sets from seeds 1-20 on any workload, and 25 % at most. Compared at one
// seed, a sim-clock metric has no bound at all: it is equal or the model
// changed, which is what run.sh flags.
type e2eDef struct {
	name, unit, clock, better string
	bound                     float64
	what                      string
}

var endToEndDefs = []e2eDef{
	{"setup_s", "s", "host", "lower", 0.25, "workload start to timed-phase start: world, pools, input generation, prefill and settling"},
	{"host_wall_s", "s", "host", "lower", 0.25, "wall time of the timed phase, tracing off"},
	{"host_cpu_s", "s", "host", "lower", 0.25, "process user+sys CPU over the timed phase (getrusage)"},
	{"host_alloc_MB", "MB", "host", "lower", 0.08, "MemStats.TotalAlloc over the timed phase"},
	{"host_live_heap_MB", "MB", "host", "lower", 0.12, "HeapAlloc after a forced GC at the end of the timed phase"},
	{"sim_elapsed_s", "s", "sim", "lower", 0.05, "simulated seconds the timed phase took, drain and maintenance included"},
	{"sim_write_mean_us", "us", "sim", "lower", 0.12, "mean foreground write latency at the client.BlockDevice boundary"},
	{"sim_write_slowest2pct_us", "us", "sim", "lower", 0.25, "mean of the slowest 2 % of the same"},
	{"sim_read_mean_us", "us", "sim", "lower", 0.2, "mean foreground read latency, same boundary"},
	{"sim_read_slowest2pct_us", "us", "sim", "lower", 0.25, "mean of the slowest 2 % of the same"},
	{"sim_fg_MBps", "MB/s", "sim", "higher", 0.13, "acknowledged foreground bytes over the simulated time issuers ran"},
	{"sim_dedup_MBps", "MB/s", "sim", "higher", 0.25, "EngineStats.BytesFlushed over sim_elapsed_s"},
	{"sim_cpu_s", "s", "sim", "lower", 0.06, "Cluster.HostCPUBusy over the timed phase: modelled hashing, EC math, index search"},
	{"space_ratio", "ratio", "sim", "higher", 0.19, "live user bytes over bytes stored cluster-wide (TotalUsage) at the end of the timed phase"},
}

// layerDef defines one per-layer metric. src is where the number comes from:
// S simulated clock or counts read through public surface in the traced
// run, P a host-clock probe that calls the layer's public function in a loop
// with inputs of this workload's shape, C the host CPU profile of the traced
// run. moves names the end-to-end metric and workload it is expected to
// move.
type layerDef struct {
	name, unit, better, src, moves string
}

var layerDefs = buildLayerDefs()

func buildLayerDefs() []layerDef {
	d := []layerDef{
		{"workload.gen_MBps", "MB/s", "higher", "P", "setup_s on all"},
		{"workload.gen_alloc_MB", "MB", "lower", "P", "setup_s on all"},

		{"client.ops", "count", "higher", "S", "sim_*_mean_us on oltp-mixed"},
		{"client.backend_calls_per_op", "ratio", "lower", "S", "sim_*_mean_us on oltp-mixed"},
		{"client.write_sim_us_p50", "us", "lower", "S", "sim_write_mean_us on all"},
		{"client.read_sim_us_p50", "us", "lower", "S", "sim_read_mean_us on all"},

		{"gateway.admit_wait_sim_us_mean", "us", "lower", "S", "sim_*_slowest2pct_us on oltp-mixed"},
		{"gateway.admit_wait_sim_us_p99", "us", "lower", "S", "sim_*_slowest2pct_us on oltp-mixed"},
		{"gateway.throttled_ops", "count", "lower", "S", "sim_*_slowest2pct_us on oltp-mixed"},
		{"gateway.admit_host_ns", "ns", "lower", "P", "host_wall_s on oltp-mixed"},

		{"core.write_sim_us_mean", "us", "lower", "S", "sim_write_mean_us on all"},
		{"core.read_sim_us_mean", "us", "lower", "S", "sim_read_mean_us on oltp-mixed, cold-ec-tier"},
		{"core.read_redirect_ratio", "ratio", "lower", "S", "sim_read_mean_us on oltp-mixed, cold-ec-tier"},
		{"core.chunkmap_codec_host_ns", "ns", "lower", "P", "host_wall_s on ingest-drain"},

		{"core.flush.chunks", "count", "higher", "S", "sim_dedup_MBps on ingest-drain"},
		{"core.flush.MB", "MB", "higher", "S", "sim_dedup_MBps on ingest-drain"},
		{"core.flush.dup_ratio", "ratio", "higher", "S", "space_ratio on ingest-drain"},
		{"core.flush.noop_ratio", "ratio", "higher", "S", "sim_dedup_MBps on ingest-drain"},
		{"core.flush.requeued", "count", "lower", "S", "sim_elapsed_s on ingest-drain"},
		{"core.flush.skipped_hot", "count", "lower", "S", "space_ratio on oltp-mixed"},
		{"core.flush.sim_us_mean", "us", "lower", "S", "sim_elapsed_s on ingest-drain"},
		{"core.flush.sim_us_p99", "us", "lower", "S", "sim_elapsed_s on ingest-drain"},
		{"core.flush.queue_wait_share", "ratio", "lower", "S", "sim_dedup_MBps on ingest-drain"},
		{"core.rate_adjusts", "count", "lower", "S", "sim_write_slowest2pct_us on oltp-mixed"},

		{"core.gc.sim_s", "s", "lower", "S", "sim_elapsed_s on maintain-recover"},
		{"core.gc.host_s", "s", "lower", "S", "host_wall_s on maintain-recover"},
		{"core.gc.chunks_scanned", "count", "lower", "S", "sim_elapsed_s on maintain-recover"},
		{"core.gc.refs_checked", "count", "lower", "S", "sim_elapsed_s on maintain-recover"},
		{"core.gc.chunks_deleted", "count", "higher", "S", "space_ratio on maintain-recover"},
		{"core.scrub.sim_s", "s", "lower", "S", "sim_elapsed_s on maintain-recover"},
		{"core.scrub.host_s", "s", "lower", "S", "host_wall_s on maintain-recover"},
		{"core.scrub.verified_MB", "MB", "higher", "S", "sim_cpu_s on maintain-recover"},
		{"core.scrub.issues", "count", "lower", "S", "correctness"},
		{"core.audit.sim_s", "s", "lower", "S", "sim_elapsed_s on maintain-recover"},
		{"core.audit.host_s", "s", "lower", "S", "host_wall_s on maintain-recover"},
		{"core.audit.bindings_checked", "count", "lower", "S", "sim_elapsed_s on maintain-recover"},
		{"core.audit.repairs", "count", "lower", "S", "correctness"},

		{"tiering.passes", "count", "lower", "S", "host_wall_s on cold-ec-tier"},
		{"tiering.migrated_chunks", "count", "lower", "S", "sim_read_slowest2pct_us on cold-ec-tier"},
		{"tiering.migrated_MB", "MB", "lower", "S", "sim_cpu_s on cold-ec-tier"},
		{"tiering.raced_skips", "count", "lower", "S", "space_ratio on cold-ec-tier"},
		{"tiering.cold_share", "ratio", "higher", "S", "space_ratio on cold-ec-tier"},
		{"hitset.hot_share", "ratio", "lower", "S", "space_ratio on cold-ec-tier"},

		{"chunker.fingerprint_host_ns_per_chunk", "ns", "lower", "P", "host_wall_s on ingest-drain"},
		{"chunker.chunks_hashed", "count", "lower", "S", "sim_cpu_s on ingest-drain"},

		{"rados.write_sim_us_mean", "us", "lower", "S", "sim_write_mean_us on all"},
		{"rados.write_sim_us_p99", "us", "lower", "S", "sim_write_slowest2pct_us on all"},
		{"rados.read_sim_us_mean", "us", "lower", "S", "sim_read_mean_us on all"},
		{"rados.read_sim_us_p99", "us", "lower", "S", "sim_read_slowest2pct_us on all"},
		{"rados.fg_ops", "count", "lower", "S", "sim_*_mean_us on all"},
		{"rados.write_amp", "ratio", "lower", "S", "sim_fg_MBps on ingest-drain"},
		{"rados.degraded_reads", "count", "lower", "S", "sim_read_slowest2pct_us on cold-ec-tier"},
		{"rados.degraded_writes", "count", "lower", "S", "sim_write_slowest2pct_us on maintain-recover"},
		{"rados.recovery.sim_s", "s", "lower", "S", "sim_elapsed_s on maintain-recover"},
		{"rados.recovery.host_s", "s", "lower", "S", "host_wall_s on maintain-recover"},
		{"rados.recovery.MB_moved", "MB", "lower", "S", "sim_elapsed_s on maintain-recover"},
		{"rados.recovery.objects_copied", "count", "lower", "S", "sim_elapsed_s on maintain-recover"},
		{"rados.recovery.shards_rebuilt", "count", "lower", "S", "sim_elapsed_s on maintain-recover"},
		{"rados.monitor.detect_sim_ms", "ms", "lower", "S", "sim_write_slowest2pct_us on maintain-recover"},
	}
	for _, cls := range qos.ClassNames() {
		moves := map[string]string{
			"client": "sim_*_slowest2pct_us on oltp-mixed, maintain-recover", "dedup": "sim_dedup_MBps on ingest-drain",
			"recovery": "sim_elapsed_s on maintain-recover", "scrub": "sim_elapsed_s on maintain-recover",
			"gc": "sim_elapsed_s on maintain-recover", "tiering": "sim_read_slowest2pct_us on cold-ec-tier",
		}[cls]
		d = append(d,
			layerDef{"qos." + cls + ".admitted", "count", "lower", "S", moves},
			layerDef{"qos." + cls + ".queue_wait_sim_us_mean", "us", "lower", "S", moves},
			layerDef{"qos." + cls + ".queue_wait_sim_us_p99", "us", "lower", "S", moves},
		)
	}
	d = append(d,
		layerDef{"qos.submit_host_ns", "ns", "lower", "P", "host_wall_s on oltp-mixed"},

		layerDef{"sim.res.disk.util_mean", "ratio", "lower", "S", "sim_*_slowest2pct_us on ingest-drain"},
		layerDef{"sim.res.disk.util_max", "ratio", "lower", "S", "sim_*_slowest2pct_us on ingest-drain"},
		layerDef{"sim.res.disk.avg_queue", "count", "lower", "S", "sim_*_slowest2pct_us on ingest-drain"},
		layerDef{"sim.res.nic.util_mean", "ratio", "lower", "S", "sim_fg_MBps on ingest-drain"},
		layerDef{"sim.res.nic.util_max", "ratio", "lower", "S", "sim_fg_MBps on ingest-drain"},
		layerDef{"sim.res.cpu.util_mean", "ratio", "lower", "S", "sim_*_slowest2pct_us on cold-ec-tier"},
		layerDef{"sim.res.cpu.util_max", "ratio", "lower", "S", "sim_*_slowest2pct_us on cold-ec-tier"},

		layerDef{"sim.events_dispatched", "count", "lower", "S", "host_wall_s on oltp-mixed"},
		layerDef{"sim.events_per_op", "ratio", "lower", "S", "host_wall_s on oltp-mixed"},
		layerDef{"sim.fastpath_ratio", "ratio", "higher", "S", "host_cpu_s on oltp-mixed"},
		layerDef{"sim.peak_heap", "count", "lower", "S", "host_cpu_s on oltp-mixed"},
		layerDef{"sim.procs_spawned", "count", "lower", "S", "host_alloc_MB on oltp-mixed"},
		layerDef{"sim.procs_reused_ratio", "ratio", "higher", "S", "host_alloc_MB on oltp-mixed"},
		layerDef{"sim.host_ns_per_event", "ns", "lower", "S", "host_wall_s on oltp-mixed"},
		layerDef{"sim.handoff_host_ns", "ns", "lower", "P", "host_wall_s on oltp-mixed"},

		layerDef{"ec.encode_host_ns_per_MB", "ns", "lower", "P", "host_wall_s on cold-ec-tier"},
		layerDef{"ec.reconstruct_host_ns_per_MB", "ns", "lower", "P", "host_wall_s on cold-ec-tier"},
		layerDef{"ec.stripes_written", "count", "lower", "S", "sim_cpu_s on cold-ec-tier"},
		layerDef{"ec.degraded_reconstructs", "count", "lower", "S", "sim_read_slowest2pct_us on cold-ec-tier"},

		layerDef{"store.apply_host_ns_per_call", "ns", "lower", "P", "host_wall_s on ingest-drain"},
		layerDef{"store.read_host_ns_per_call", "ns", "lower", "P", "host_wall_s on ingest-drain"},
		layerDef{"store.alloc_bytes_per_byte_written", "ratio", "lower", "P", "host_alloc_MB on ingest-drain"},
		layerDef{"store.objects", "count", "lower", "S", "space_ratio on all"},
		layerDef{"store.physical_MB", "MB", "lower", "S", "space_ratio on all"},
		layerDef{"store.metadata_MB", "MB", "lower", "S", "space_ratio on all"},

		layerDef{"fpindex.lookups", "count", "lower", "S", "sim_dedup_MBps on cold-ec-tier"},
		layerDef{"fpindex.lookup_sim_us_mean", "us", "lower", "S", "sim_write_slowest2pct_us on cold-ec-tier"},
		layerDef{"fpindex.lookup_sim_us_p99", "us", "lower", "S", "sim_write_slowest2pct_us on cold-ec-tier"},
		layerDef{"fpindex.cache_hit_ratio", "ratio", "higher", "S", "sim_dedup_MBps on cold-ec-tier"},
		layerDef{"fpindex.bloom_fp_ratio", "ratio", "lower", "S", "sim_dedup_MBps on cold-ec-tier"},
		layerDef{"fpindex.compactions", "count", "lower", "S", "sim_cpu_s on cold-ec-tier"},
		layerDef{"fpindex.wal_MB", "MB", "lower", "S", "sim_elapsed_s on cold-ec-tier"},
		layerDef{"fpindex.mismatches", "count", "lower", "S", "correctness"},
		layerDef{"fpindex.lookup_host_ns", "ns", "lower", "P", "host_wall_s on cold-ec-tier"},

		layerDef{"metrics.spans_recorded", "count", "lower", "S", "cost of looking"},
		layerDef{"metrics.spans_dropped", "count", "lower", "S", "cost of looking"},
		layerDef{"metrics.trace_overhead_pct", "%", "lower", "S", "cost of looking"},
	)
	for _, mod := range profModules {
		d = append(d, layerDef{"hostprof." + mod + ".cpu_share", "ratio", "lower", "C", "share x host_cpu_s bounds what a host optimisation of the module can save"})
	}
	return d
}

// profModules are the buckets a CPU-profile sample is charged to: the
// innermost dedupstore/internal/<module> frame on its stack, or runtime-gc
// for the collector's own goroutines.
var profModules = []string{"store", "rados", "core", "sim", "qos", "metrics", "ec", "fpindex", "gateway", "client", "workload", "runtime-gc"}
