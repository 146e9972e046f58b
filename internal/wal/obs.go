package wal

import "repro/internal/obs"

// RegisterMetrics exposes the log's counters through an obs.Registry as
// read-through views — the atomics in Log stay the single source of
// truth (Stats() keeps serving them), the registry only reads them at
// scrape time, and the Sync durations' histogram is digested then too.
// Appends, syncs, and bytes are one atomic load each;
// segments takes the log mutex, which a scrape may contend with the
// writer for (scrape-rate, not commit-rate, cost).
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
		"Live WAL segment files.", func() float64 {
			l.mu.Lock()
			defer l.mu.Unlock()
			return float64(l.segments)
		}, labels...)
}
