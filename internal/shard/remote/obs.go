package remote

import (
	"slices"

	"repro/internal/obs"
	"repro/internal/rpc"
)

// This file federates the distributed layer's counters into an
// obs.Registry: the client Cluster's ingest/read/resilience counters
// (the same atomics Stats() reads), the shard server's per-verb RPC
// dispatch latency, and the dedup window's occupancy.

// RegisterMetrics registers the client-side counters. The resilience
// counters (retries, breaker, failover) make the PR 9 degradation
// ladder observable live instead of only in the end-of-run report.
func (c *Cluster[E]) RegisterMetrics(reg *obs.Registry, labels ...obs.Label) {
	reg.CounterFunc("aspen_client_edges_total",
		"Edge updates acknowledged by shard servers.", c.edges.Load, labels...)
	reg.CounterFunc("aspen_client_batches_total",
		"Submit frames acknowledged.", c.batches.Load, labels...)
	reg.CounterFunc("aspen_client_submit_errors_total",
		"Submits that failed after exhausting retries.", c.submitErrs.Load, labels...)
	reg.CounterFunc("aspen_client_pins_total",
		"Version-vector pins taken by Begin.", c.pins.Load, labels...)
	reg.CounterFunc("aspen_client_range_rpcs_total",
		"Vertex-range read RPCs issued.", c.rangeRPCs.Load, labels...)
	reg.CounterFunc("aspen_client_view_fetches_total",
		"Per-shard flat views fetched over the wire.", c.viewFetches.Load, labels...)
	reg.CounterFunc("aspen_client_view_hits_total",
		"Per-shard flat views served from the client cache.", c.viewHits.Load, labels...)
	reg.CounterFunc("aspen_client_stitch_builds_total",
		"Cluster views stitched client-side.", c.stitchBuilds.Load, labels...)
	reg.CounterFunc("aspen_client_stitch_hits_total",
		"Cluster views served from the client stitch cache.", c.stitchHits.Load, labels...)
	reg.CounterFunc("aspen_client_replica_reads_total",
		"Pins served by a read replica.", c.replicaReads.Load, labels...)
	reg.CounterFunc("aspen_client_primary_fallbacks_total",
		"Replica reads that fell back to the primary (lagging watermark).",
		c.primaryFallbacks.Load, labels...)
	reg.CounterFunc("aspen_client_delta_reads_total",
		"Moved shards read as a delta against the held view.", c.deltaReads.Load, labels...)
	reg.CounterFunc("aspen_client_delta_edges_total",
		"Edge changes carried by delta reads.", c.deltaEdges.Load, labels...)
	for reason, name := range [numFallReasons]string{fallNoBase: "no_base", fallTooLarge: "too_large", fallVerifyFailed: "verify_failed"} {
		ls := append(slices.Clone(labels), obs.Label{Key: "reason", Value: name})
		reg.CounterFunc("aspen_client_delta_fallbacks_total",
			"Moved shards with a view held that were read from the empty version instead, by reason.",
			c.deltaFallbacks[reason].Load, ls...)
	}
	reg.CounterFunc("aspen_client_retries_total",
		"Submit frames retransmitted.", c.nstat.retries.Load, labels...)
	reg.CounterFunc("aspen_client_dedup_acks_total",
		"Acks answered from a server dedup window.", c.nstat.dedupAcks.Load, labels...)
	reg.CounterFunc("aspen_client_breaker_opens_total",
		"Endpoint transitions to down (breaker open).", c.nstat.breakerOpens.Load, labels...)
	reg.CounterFunc("aspen_client_breaker_fast_fails_total",
		"Operations refused while a breaker was open.", c.nstat.breakerFastFails.Load, labels...)
	reg.CounterFunc("aspen_client_suspects_total",
		"Endpoint transitions healthy to suspect.", c.nstat.suspects.Load, labels...)
	reg.CounterFunc("aspen_client_rpc_timeouts_total",
		"RPC deadlines that closed a connection.", c.nstat.timeouts.Load, labels...)
	reg.CounterFunc("aspen_client_failovers_total",
		"Submit streams redirected to a promoted replica.", c.nstat.failovers.Load, labels...)
	reg.CounterFunc("aspen_client_promotions_total",
		"Replica promotions observed by the health prober.", c.nstat.promotions.Load, labels...)
	reg.CounterFunc("aspen_client_degraded_pins_total",
		"Begin pins served by a replica with the primary down.", c.nstat.degradedPins.Load, labels...)
	reg.CounterFunc("aspen_client_stale_reads_total",
		"Begin pins served from bounded-stale cached views.", c.nstat.staleReads.Load, labels...)
	reg.CounterFunc("aspen_client_health_probes_total",
		"Health probes issued.", c.nstat.probes.Load, labels...)
}

// RegisterMetrics registers the server's per-verb RPC dispatch latency
// summaries and the dedup window occupancy gauges.
func (s *Server[G, E]) RegisterMetrics(reg *obs.Registry, labels ...obs.Label) {
	summary := func(verb string, h *obs.Hist) {
		reg.Summary("aspen_rpc_dispatch_seconds",
			"Synchronous RPC dispatch latency per verb (submit acks complete asynchronously).",
			h, append(slices.Clone(labels), obs.Label{Key: "verb", Value: verb})...)
	}
	for v := rpc.Verb(1); int(v) < rpc.NumVerbs; v++ {
		// Push-only verbs (tail_rec, tail_snap) never arrive as
		// requests; skip their always-empty series.
		if v != rpc.VerbTailRec && v != rpc.VerbTailSnap {
			summary(v.String(), &s.hists.verbs[v])
		}
	}
	// Reads that name a base (base ≠ 0) — answered with the edge diff, or
	// from the empty version; verb="read" keeps those that name none.
	summary("read_delta", &s.hists.delta)
	d := s.dedup
	reg.GaugeFunc("aspen_dedup_clients",
		"Clients tracked by the exactly-once dedup window.", func() float64 {
			clients, _ := d.Occupancy()
			return float64(clients)
		}, labels...)
	reg.GaugeFunc("aspen_dedup_entries",
		"Entries held across all client dedup windows.", func() float64 {
			_, entries := d.Occupancy()
			return float64(entries)
		}, labels...)
}

// Occupancy reports how much the dedup table currently remembers:
// tracked clients and total window entries (completed + in-flight)
// across them — the /statusz signal for sizing the window against the
// checkpoint cadence.
func (d *Dedup) Occupancy() (clients, entries int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, cw := range d.clients {
		entries += len(cw.entries)
	}
	return len(d.clients), entries
}
