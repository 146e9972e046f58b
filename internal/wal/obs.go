package wal

import "repro/internal/obs"

// RegisterMetrics exposes the log's counters through an obs.Registry as
// read-through views — the atomics in Log stay the single source of
// truth (Stats() keeps serving them), the registry only reads them at
// scrape time, and the Sync durations' histogram is digested then too.
// Every counter and the segment gauge are one atomic load each, so a
// scrape never waits on the log mutex a Sync holds across its fsync.
func (l *Log) RegisterMetrics(reg *obs.Registry, labels ...obs.Label) {
	reg.CounterFunc("aspen_wal_appends_total",
		"WAL records appended.", l.appends.Load, labels...)
	reg.CounterFunc("aspen_wal_syncs_total",
		"WAL fsyncs issued (policy, barrier, rotation).", l.syncs.Load, labels...)
	reg.Summary("aspen_wal_sync_seconds",
		"Duration of each WAL Sync (flush + fsync), whatever asked for it.", &l.syncTime, labels...)
	reg.CounterFunc("aspen_wal_bytes_total",
		"WAL frame bytes appended, headers included.", l.bytes.Load, labels...)
	reg.GaugeFunc("aspen_wal_segments",
		"Live WAL segment files.", func() float64 { return float64(l.segments.Load()) }, labels...)
}
