package main

import "time"

// shape is the load every workload shares: one rMAT stream, cut into a
// preload and fixed-size update batches. Sizes are fixed here and never
// derived from a measurement, so inputs and final state repeat exactly for
// a given seed.
type shape struct {
	scale        int // log2 of the rMAT vertex-id space
	preloadEdges int // sampled edges loaded before timing (×2 directed)
	batchEdges   int // sampled edges per update batch (×2 directed)
	deletePeriod int // one delete batch every this many batches
	// pacedShare is the part of -seconds spent in the paced phase; the
	// saturated phase is sized for the rest.
	pacedShare float64
	setupReps  int // set-ups per run; setup_s is their median
	quietTx    int // query transactions of workloads without a reader
}

var (
	// fullShape is the ledger's load: rMAT scale 16, 500 000 preloaded
	// edges, 500-edge batches, one delete batch in ten.
	fullShape = shape{scale: 16, preloadEdges: 500_000, batchEdges: 500,
		deletePeriod: 10, pacedShare: 5.0 / 6, setupReps: 3, quietTx: 30}
	// smokeShape runs every code path in a few seconds for the tests.
	smokeShape = shape{scale: 10, preloadEdges: 5_000, batchEdges: 50,
		deletePeriod: 10, pacedShare: 0.5, setupReps: 1, quietTx: 6}
)

const (
	// visibleLimit is the latency limit on the paced phase: a batch that
	// fails, is refused, or becomes visible later than this counts in
	// late_share.
	visibleLimit = 50 * time.Millisecond
	// window bounds the batches in flight in the saturated (closed-loop)
	// phase.
	window = 32
	// defaultSeconds is BENCHMARK.json's run_seconds: 20 s paced + ~4 s
	// saturated.
	defaultSeconds = 24
	// checkpointEvery is the durable stackings' checkpoint cadence in
	// commits.
	checkpointEvery = 256
	// remoteShards is the shard-server count of remote.mixed.
	remoteShards = 2
	// maxQueriesPerSecond sizes the reader's preallocated trace buffer; the
	// full-size graph answers about fifteen queries a second. Queries past
	// the buffer still run and count, their timings are dropped.
	maxQueriesPerSecond = 200
)

// bfsSources are the fixed BFS sources: the four lowest ids, which rMAT's
// skew makes hubs of the giant component on every seed. Timed queries use
// the first (one source keeps the latency sample unimodal); the final check
// compares the reach from all four with the reference.
var bfsSources = [...]uint32{0, 1, 2, 3}

// workload is one stacking of the system under one traffic mix. Rates and
// batch counts are fixed: pacedRate is at most half the workload's own
// saturated rate measured on the 2-core reference box (see README), and
// satRate only sizes the saturated phase's batch count.
type workload struct {
	name, why string
	durable   bool // WAL + checkpoints under the engine
	remote    bool // two durable shard servers behind loopback TCP
	reader    bool // one reader runs queries beside the paced writer
	patchFlat bool // stream.Options.PatchFlat
	batchMul  int  // batch size in units of shape.batchEdges
	pacedRate float64
	satRate   float64 // batches/s the saturated phase is sized with
}

var workloads = []workload{
	{
		name: "engine.update", batchMul: 1, pacedRate: 100, satRate: 350,
		why: "in-memory engine, no reader, paced 100 batches/s: aspen/ctree/encoding apply plus the stream queue; where a commit-path change must show",
	},
	{
		name: "engine.query", reader: true, patchFlat: true, batchMul: 5, pacedRate: 20, satRate: 120,
		why: "in-memory engine with PatchFlat and one reader, paced 20 batches/s of 2500 edges: flat views and kernels; the writes-beside-reads check",
	},
	{
		name: "durable.update", durable: true, batchMul: 1, pacedRate: 100, satRate: 350,
		why: "engine.update traffic through a WAL with fsync per commit and checkpoints every 256 commits: the wal+graphio tax",
	},
	{
		name: "remote.mixed", durable: true, remote: true, reader: true, batchMul: 1, pacedRate: 50, satRate: 450,
		why: "two durable shard servers over loopback TCP, range partitioner, paced 50 batches/s, one reader: the wire+sharding tax",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef mirrors one entry of BENCHMARK.json; bound is 0 for per-layer
// metrics, which are reported and never gated.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd are the gated metrics, reported by every workload with tracing
// off. BENCHMARK.json repeats this table; benchjson_test.go keeps the two
// in step.
var endToEnd = []metricDef{
	{"visible_p50_ms", "ms", "lower", 0.25},
	{"ingest_edges_per_s", "edges/s", "higher", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"bytes_per_edge", "B/edge", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// demoted are end-to-end numbers that carry no bound: too unsteady to gate
// (visible_p99_ms, late_share) or not defined on every workload (recover_s
// is 0 for the in-memory stackings). Every run reports them.
var demoted = []metricDef{
	{name: "visible_p99_ms", unit: "ms", better: "lower"},
	{name: "late_share", unit: "ratio", better: "lower"},
	{name: "recover_s", unit: "s", better: "lower"},
}

// perLayer are the ungated metrics a traced run reports: the demoted
// end-to-end numbers, then the metrics of single layers. A layer that a
// stacking does not contain reports 0: no WAL bytes in memory, no range RPCs
// in process.
var perLayer = append(append([]metricDef(nil), demoted...), []metricDef{
	// The traced run's own medians; against the untraced ones they give
	// the tracing overhead.
	{name: "traced_visible_p50_ms", unit: "ms", better: "lower"},
	{name: "traced_query_p50_ms", unit: "ms", better: "lower"},
	// Load generator.
	{name: "gen_late_p99_ms", unit: "ms", better: "lower"},
	{name: "paced_backlog_end", unit: "count", better: "lower"},
	// Blocking path of a paced batch: the calls that tile due→visible.
	{name: "span_sched_p50_ms", unit: "ms", better: "lower"},
	{name: "span_submit_p50_ms", unit: "ms", better: "lower"},
	{name: "span_ack_wait_p50_ms", unit: "ms", better: "lower"},
	{name: "span_pin_p50_ms", unit: "ms", better: "lower"},
	{name: "visible_path_share", unit: "ratio", better: "higher"},
	{name: "span_sat_submit_p50_ms", unit: "ms", better: "lower"},
	// Blocking path of a query.
	{name: "span_begin_p50_ms", unit: "ms", better: "lower"},
	{name: "span_flat_p50_ms", unit: "ms", better: "lower"},
	{name: "span_flat_build_p50_ms", unit: "ms", better: "lower"},
	{name: "span_flat_patch_p50_ms", unit: "ms", better: "lower"},
	{name: "span_flat_hit_p50_ms", unit: "ms", better: "lower"},
	{name: "span_kernel_bfs_p50_ms", unit: "ms", better: "lower"},
	{name: "span_kernel_cc_p50_ms", unit: "ms", better: "lower"},
	{name: "span_close_p50_ms", unit: "ms", better: "lower"},
	{name: "query_path_share", unit: "ratio", better: "higher"},
	// stream: mean per commit of each stage in the paced phase.
	{name: "stage_enqueue_ms", unit: "ms", better: "lower"},
	{name: "stage_coalesce_ms", unit: "ms", better: "lower"},
	{name: "stage_wal_append_ms", unit: "ms", better: "lower"},
	{name: "stage_fsync_ms", unit: "ms", better: "lower"},
	{name: "stage_apply_ms", unit: "ms", better: "lower"},
	{name: "stage_ack_ms", unit: "ms", better: "lower"},
	{name: "coalesce_factor", unit: "batches/commit", better: "higher"},
	{name: "apply_busy_share", unit: "ratio", better: "lower"},
	{name: "flat_hit_ratio", unit: "ratio", better: "higher"},
	// wal + graphio.
	{name: "wal_bytes_per_edge", unit: "B/edge", better: "lower"},
	{name: "wal_fsyncs", unit: "count", better: "lower"},
	{name: "checkpoints", unit: "count", better: "lower"},
	// shard + rpc client.
	{name: "range_rpcs", unit: "count", better: "lower"},
	{name: "view_hit_ratio", unit: "ratio", better: "higher"},
	{name: "retries", unit: "count", better: "lower"},
	{name: "dedup_acks", unit: "count", better: "lower"},
	// Go runtime.
	{name: "allocs_per_edge", unit: "1/edge", better: "lower"},
	{name: "gc_cpu_share", unit: "ratio", better: "lower"},
	{name: "gc_pause_ms", unit: "ms", better: "lower"},
	// Each layer alone, on the run's inputs.
	{name: "probe_apply_us_per_batch", unit: "us", better: "lower"},
	{name: "probe_apply_allocs_per_edge", unit: "1/edge", better: "lower"},
	{name: "probe_flat_build_ms", unit: "ms", better: "lower"},
	{name: "probe_flat_patch_ms", unit: "ms", better: "lower"},
	{name: "probe_diff_ms", unit: "ms", better: "lower"},
	{name: "probe_bfs_flat_ms", unit: "ms", better: "lower"},
	{name: "probe_bfs_tree_ms", unit: "ms", better: "lower"},
	{name: "probe_cc_flat_ms", unit: "ms", better: "lower"},
	{name: "probe_cc_tree_ms", unit: "ms", better: "lower"},
	{name: "probe_wal_sync_us", unit: "us", better: "lower"},
	{name: "probe_route_us", unit: "us", better: "lower"},
	{name: "probe_route_skew", unit: "ratio", better: "lower"},
	{name: "probe_frame_us", unit: "us", better: "lower"},
}...)
