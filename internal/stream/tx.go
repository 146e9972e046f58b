package stream

import (
	"repro/internal/aspen"
	"repro/internal/ligra"
)

// Tx is a read transaction: an immutable snapshot pinned against epoch
// reclamation. Any number of transactions run concurrently with each other
// and with the ingest loop; a transaction never blocks a commit and a
// commit never disturbs an open transaction. Close releases the pin; the
// snapshot must not be used after Close (the version it pins may then be
// retired and its snapshot reference cleared).
type Tx[G ligra.Graph] struct {
	v   *aspen.Version[seqGraph[G]]
	reg *aspen.Versioned[seqGraph[G]]
	fc  *flatCache[G]
}

// Begin pins the latest published version and returns a transaction over
// it. Lock-free; never blocked by the writer or other readers.
func (e *Engine[G, E]) Begin() Tx[G] {
	return Tx[G]{v: e.reg.Acquire(), reg: e.reg, fc: &e.flat}
}

// Graph returns the pinned immutable snapshot. Any algos kernel accepting
// the ligra traversal interfaces runs against it directly.
func (t *Tx[G]) Graph() G { return t.v.Graph.g }

// Flat returns the §5.1 flat view of the pinned version — the default fast
// path for global kernels (O(1) degree and edge-tree access instead of the
// O(log n) vertex-tree lookup). The view is cached per version: it is built
// at most once, by whichever transaction (or the ingest loop, under
// Options.PrebuildFlat) asks first, and shared by every transaction pinning
// the same version until the version retires. When the engine has no
// flatten registered it falls back to the tree snapshot. Like Graph, the
// result must not be used after Close. The returned view also satisfies
// ligra.FlatGraph (and, for weighted engines, ligra.FlatWeightedGraph).
func (t *Tx[G]) Flat() ligra.Graph {
	if t.fc != nil {
		if view := t.fc.viewOf(t.v.Stamp, t.v.Graph.g); view != nil {
			if flatDebug {
				// aspendebug builds: a cached view handed to this
				// transaction must have been built from exactly the pinned
				// snapshot (aspen.FlatSnapshot.MustCurrent panics
				// otherwise). Compiled away in release builds.
				if c, ok := view.(interface{ MustCurrent(G) }); ok {
					c.MustCurrent(t.v.Graph.g)
				}
			}
			return view
		}
	}
	return t.v.Graph.g
}

// Stamp returns the pinned version's sequence number.
func (t *Tx[G]) Stamp() uint64 { return t.v.Stamp }

// Seq returns the last WAL sequence number the pinned version reflects:
// every record up to it is applied in the snapshot and none after it (0
// without durability). It is recorded when the version is published, so
// reading it takes no lock and never runs ahead of the snapshot, as the
// log's own watermark (Engine.WALSeq) can while a commit is being logged.
func (t *Tx[G]) Seq() uint64 { return t.v.Graph.seq }

// Close releases the pin, allowing the version to be retired once its last
// reader is done. Reports whether this Close retired the version.
// Idempotent: second and later calls return false.
func (t *Tx[G]) Close() bool {
	if t.v == nil {
		return false
	}
	v := t.v
	t.v = nil
	return t.reg.Release(v)
}
