package stream

import (
	"repro/internal/ligra"
	"repro/internal/obs"
)

// Store is the paper's serving interface (§6, §7.8) — set a batch, acquire
// a version, run a kernel on it — as every deployment of this repository
// offers it: a lone Engine and a networked remote.Cluster each return one
// from their Store method. A driver written against Store (Workload,
// cmd/stream, the conformance suite) runs unchanged over both; a lone
// engine is the 1-shard case. The native methods
// (Insert/Delete → Pending, Begin → Tx) stay the API for callers that need
// per-batch acks or the concrete snapshot type.
type Store[E any] interface {
	// Submit enqueues one batch of insertions (or deletions, with del) and
	// returns once it is accepted; Flush is the visibility barrier.
	Submit(del bool, edges []E) error
	// Pin acquires the latest committed version of every shard.
	Pin() (Snapshot, error)
	// Flush blocks until everything submitted before the call has committed
	// and returns the stamp then current on each shard. It returns after
	// every earlier Submit's outcome has been delivered, counted (Stats)
	// and made visible to a later Pin.
	Flush() ([]uint64, error)
	// Stats reads the deployment's counters.
	Stats() StoreStats
	// RegisterMetrics federates the same counters into reg.
	RegisterMetrics(reg *obs.Registry, labels ...obs.Label)
	// Close stops the deployment's writers (or tears down its connections).
	Close()
}

// Snapshot is one pinned version vector. Views handed out are valid until
// Close.
type Snapshot interface {
	// Stamps is the pinned version of each shard, in shard order.
	Stamps() []uint64
	// Flat is the §5.1 flat view of the pinned vector (stitched across
	// shards) — the default fast path for global kernels.
	Flat() (ligra.Graph, error)
	// Tree is the C-tree view of the pinned vector, or nil where the
	// deployment has none (a remote cluster ships flat views only).
	Tree() ligra.Graph
	// Close releases the pins.
	Close()
}

// StoreStats is a point-in-time read of a deployment's counters: totals
// over the shards plus each shard engine's full counter set.
type StoreStats struct {
	Shards int `json:"shards"`
	// Edges / Batches / Commits sum the per-shard ingest counters (a routed
	// batch counts once per touched shard in Batches).
	Edges   uint64 `json:"edges"`
	Batches uint64 `json:"batches"`
	Commits uint64 `json:"commits"`
	// QueueDepth sums the shards' queued-but-uncommitted batches.
	QueueDepth int `json:"queue_depth"`
	// LiveVersions / RetiredVersions sum the per-shard epoch registries
	// (live is ≥ Shards: each shard's current version is live).
	LiveVersions    int64  `json:"live_versions"`
	RetiredVersions uint64 `json:"retired_versions"`
	// FlatBuilds / FlatPatches / FlatHits sum the per-shard §5.1 flat-view
	// caches; StitchBuilds / StitchHits count the remote client's
	// cross-shard stitched views (one stitch per distinct version vector,
	// served from its stitch cache otherwise).
	FlatBuilds   uint64 `json:"flat_builds"`
	FlatPatches  uint64 `json:"flat_patches,omitempty"`
	FlatHits     uint64 `json:"flat_hits"`
	StitchBuilds uint64 `json:"stitch_builds"`
	StitchHits   uint64 `json:"stitch_hits"`
	// PerShard carries each engine's full counter set, in shard order.
	PerShard []Stats `json:"per_shard,omitempty"`
	// Detail carries counters only one deployment has (remote.Stats: the
	// client's read-path cache and resilience counters).
	Detail any `json:"detail,omitempty"`
	// Err names the shards whose counters could not be read (a remote
	// server that is down); their share of every total above is missing,
	// so a run must not take deltas across a read that has one.
	Err string `json:"err,omitempty"`
}

// SumStats totals per-shard engine counters into a StoreStats.
func SumStats(per []Stats) StoreStats {
	st := StoreStats{Shards: len(per), PerShard: per}
	for _, es := range per {
		st.Edges += es.Edges
		st.Batches += es.Batches
		st.Commits += es.Commits
		st.QueueDepth += es.QueueDepth
		st.LiveVersions += es.LiveVersions
		st.RetiredVersions += es.RetiredVersions
		st.FlatBuilds += es.FlatBuilds
		st.FlatPatches += es.FlatPatches
		st.FlatHits += es.FlatHits
	}
	return st
}

// Store returns the engine as a 1-shard Store.
func (e *Engine[G, E]) Store() Store[E] { return engineStore[G, E]{e} }

// engineStore adapts Engine to Store; RegisterMetrics and Close are the
// engine's own.
type engineStore[G ligra.Graph, E any] struct{ *Engine[G, E] }

func (s engineStore[G, E]) Submit(del bool, edges []E) error {
	_, err := s.SubmitNoted(del, edges, Note{})
	return err
}

func (s engineStore[G, E]) Pin() (Snapshot, error) {
	return &engineSnapshot[G]{s.Begin()}, nil
}

// Flush also surfaces a durable engine's fail-stop error: a flush marker
// is nacked without one.
func (s engineStore[G, E]) Flush() ([]uint64, error) {
	stamp, err := s.Engine.Flush()
	if err == nil {
		err = s.Err()
	}
	return []uint64{stamp}, err
}

func (s engineStore[G, E]) Stats() StoreStats {
	return SumStats([]Stats{s.Engine.Stats()})
}

type engineSnapshot[G ligra.Graph] struct{ tx Tx[G] }

func (s *engineSnapshot[G]) Stamps() []uint64           { return []uint64{s.tx.Stamp()} }
func (s *engineSnapshot[G]) Flat() (ligra.Graph, error) { return s.tx.Flat(), nil }
func (s *engineSnapshot[G]) Tree() ligra.Graph          { return s.tx.Graph() }
func (s *engineSnapshot[G]) Close()                     { s.tx.Close() }
