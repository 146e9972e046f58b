package stream

import "repro/internal/obs"

// This file federates the engine's counters into an obs.Registry. The
// counters themselves stay where they are (atomics on the engine, the
// flat cache, the WAL, the epoch registry) — Stats() and the metric
// series read the same words, so `/metrics` and `-json` cannot drift
// apart. Registration happens once at wiring time; the commit path is
// untouched.

// Tracer exposes the engine's commit stage tracer: per-stage latency
// histograms (enqueue/coalesce/wal_append/fsync/apply/flat_patch/ack)
// plus the slow-commit ring armed by Options.TraceSlow.
func (e *Engine[G, E]) Tracer() *obs.StageTracer { return &e.tracer }

// RegisterMetrics registers every engine counter, the commit latency
// summary, the per-stage tracer summaries, and — on durable engines —
// the WAL and checkpointer counters into reg, all carrying labels
// (the shard layer passes shard="N"). Call once per engine per
// registry, after construction.
func (e *Engine[G, E]) RegisterMetrics(reg *obs.Registry, labels ...obs.Label) {
	reg.GaugeFunc("aspen_engine_version_stamp",
		"Latest published version stamp.", func() float64 { return float64(e.reg.Current()) }, labels...)
	reg.CounterFunc("aspen_engine_commits_total",
		"Versions published by the ingest loop.", e.commits.Load, labels...)
	reg.CounterFunc("aspen_engine_batches_total",
		"Submitted batches committed (>= commits; ratio is the coalescing factor).",
		e.batches.Load, labels...)
	reg.CounterFunc("aspen_engine_edges_total",
		"Directed edge updates applied.", e.edges.Load, labels...)
	reg.GaugeFunc("aspen_engine_queue_depth",
		"Batches waiting in the ingest queue.",
		func() float64 { return float64(len(e.queue)) }, labels...)
	reg.GaugeFunc("aspen_engine_live_versions",
		"Versions still pinned by readers, plus the current one.",
		func() float64 { return float64(e.reg.LiveVersions()) }, labels...)
	reg.CounterFunc("aspen_engine_retired_versions_total",
		"Versions fully released by their last reader.", e.reg.RetiredVersions, labels...)
	reg.CounterFunc("aspen_flat_builds_total",
		"Flat views built from scratch.", e.flat.builds.Load, labels...)
	reg.CounterFunc("aspen_flat_patches_total",
		"Flat views derived from a predecessor in O(batch).", e.flat.patches.Load, labels...)
	reg.CounterFunc("aspen_flat_hits_total",
		"Tx.Flat calls served from the view cache.", e.flat.hits.Load, labels...)
	reg.GaugeFunc("aspen_flat_cached",
		"Flat views currently held (<= live versions).",
		func() float64 { return float64(e.flat.size()) }, labels...)
	reg.CounterFunc("aspen_engine_priority_holds_total",
		"Applies that held the engine's gate, pausing its flat-view kernels.",
		e.gate.Holds, labels...)
	reg.CounterFunc("aspen_engine_priority_declined_total",
		"Applies the alternation rule let run beside the kernels.",
		e.gate.Declined, labels...)
	reg.CounterFloatFunc("aspen_engine_reader_wait_seconds_total",
		"Time flat-view readers spent parked while an apply held the gate.",
		func() float64 { return e.gate.Waited().Seconds() }, labels...)
	reg.Summary("aspen_commit_latency_seconds",
		"Enqueue-to-visible latency of committed batches.", &e.commitHist, labels...)
	e.tracer.Register(reg, "aspen_commit_stage_seconds",
		"Per-stage commit pipeline latency.", labels...)
	if e.dur != nil {
		e.dur.log.RegisterMetrics(reg, labels...)
		reg.CounterFunc("aspen_checkpoints_total",
			"Checkpoints persisted by the background checkpointer.",
			e.dur.checkpoints.Load, labels...)
		reg.GaugeFunc("aspen_checkpoint_seq",
			"Last WAL sequence number covered by a persisted checkpoint.",
			func() float64 { return float64(e.dur.ckptSeq.Load()) }, labels...)
		reg.GaugeFunc("aspen_durability_failed",
			"1 after a durability error moved the engine to fail-stop.",
			func() float64 {
				if e.dur.failed.Load() {
					return 1
				}
				return 0
			}, labels...)
	}
}
