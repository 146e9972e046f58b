package shard

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/aspen"
	"repro/internal/ligra"
	"repro/internal/stream"
)

// Tx is a cross-shard read transaction: one epoch-refcounted version
// pinned per shard — a version vector. Each component is an immutable
// committed prefix of its shard's serialized history, so the joint
// snapshot is prefix-consistent per shard: no torn shard state, ever,
// though components may pin different points of the global submission
// order unless the caller quiesces writers behind Barrier first (which is
// exactly what the differential tests do). Transactions never block
// commits and commits never disturb open transactions.
//
// Tx objects are pooled: the views a Tx hands out (Graph, Ligra, Flat,
// Stamps) are valid only until Close, after which the Tx may be reused by
// a later Begin.
type Tx[G ligra.Graph, E any] struct {
	c      *Cluster[G, E]
	txs    []stream.Tx[G]
	stamps []uint64
	view   View[G]
	viewOK bool
	flat   ligra.Graph
	open   bool
}

// Begin pins the latest published version of every shard, in shard order,
// and returns the transaction over the resulting version vector. Lock-free
// per shard; allocation-free on the steady state (transactions are
// pooled).
func (c *Cluster[G, E]) Begin() *Tx[G, E] {
	t, _ := c.txPool.Get().(*Tx[G, E])
	if t == nil {
		t = &Tx[G, E]{
			c:      c,
			txs:    make([]stream.Tx[G], len(c.engines)),
			stamps: make([]uint64, len(c.engines)),
		}
		t.view = View[G]{part: c.part, gs: make([]G, len(c.engines))}
	}
	for i, e := range c.engines {
		t.txs[i] = e.Begin()
		t.stamps[i] = t.txs[i].Stamp()
	}
	t.open = true
	return t
}

// Stamps returns the pinned version vector, in shard order. The slice is
// owned by the transaction: copy it to retain it past Close.
func (t *Tx[G, E]) Stamps() []uint64 { return t.stamps }

// Shard returns the pinned snapshot of shard s directly (tests and
// shard-local queries).
func (t *Tx[G, E]) Shard(s int) G { return t.txs[s].Graph() }

// Graph returns the cross-shard tree view of the pinned version vector.
// Order and NumEdges are computed once per transaction, in O(S log n).
func (t *Tx[G, E]) Graph() *View[G] {
	if !t.viewOK {
		order := 0
		var m uint64
		for i := range t.txs {
			g := t.txs[i].Graph()
			t.view.gs[i] = g
			if o := g.Order(); o > order {
				order = o
			}
			m += g.NumEdges()
		}
		t.view.order, t.view.m = order, m
		t.viewOK = true
	}
	return &t.view
}

// Ligra returns the pinned snapshot as a ligra-facing view: the tree View,
// wrapped as WeightedView when the cluster serves weighted graphs (so the
// result satisfies ligra.WeightedGraph and SSSP-style kernels can
// type-assert it).
func (t *Tx[G, E]) Ligra() ligra.Graph {
	v := t.Graph()
	if wv, ok := any(v).(*View[aspen.WeightedGraph]); ok {
		return WeightedView{wv}
	}
	return v
}

// Flat returns the stitched §5.1 flat view of the pinned version vector —
// the default fast path for global kernels on sharded snapshots. Per-shard
// flat views come from each engine's per-version cache (built at most once
// per shard version); the cross-shard stitch is cached in the cluster's
// single slot keyed by the exact version vector, so steady-state readers
// share one stitched view and pay no allocation. Like Graph, the result
// must not be used after Close. The returned view satisfies
// ligra.FlatGraph (and ligra.FlatWeightedGraph for weighted clusters).
func (t *Tx[G, E]) Flat() ligra.Graph {
	if t.flat != nil {
		return t.flat
	}
	if f := t.c.stitch.lookup(t.stamps); f != nil {
		t.flat = f
		return f
	}
	// Slot miss. When the slot holds a stitched view of an earlier vector,
	// stitch off it: shards whose component didn't move keep their
	// per-shard views verbatim (no engine round-trip, pointer-identical),
	// only moved shards fetch fresh views (cache hits inside each engine
	// unless the component is fresh) and refill their degree ranges. With
	// no shard kept it is the full stitch. Concurrent first-stitchers of
	// the same vector may duplicate this work; the slot keeps the last
	// result, and correctness never depends on which copy a reader holds.
	base, baseStamps := t.c.stitch.base(len(t.stamps))
	bv := flatViewOf(base)
	views := make([]ligra.Graph, len(t.txs))
	moved := make([]bool, len(t.txs))
	kept := false
	for s := range t.txs {
		if bv != nil && baseStamps[s] == t.stamps[s] {
			views[s], kept = bv.views[s], true
		} else {
			views[s], moved[s] = t.txs[s].Flat(), true
		}
	}
	if kept {
		t.c.stitch.patches.Add(1)
	} else {
		t.c.stitch.builds.Add(1)
		base = nil
	}
	f := Stitch(t.c.part, base, views, moved)
	t.c.stitch.store(t.stamps, f)
	t.flat = f
	return f
}

// Close releases every shard pin, allowing retired versions to drop, and
// returns the transaction to the cluster's pool. Views obtained from this
// transaction must not be used afterwards. Idempotent for a given open
// transaction; using a Tx after Close is a caller error.
func (t *Tx[G, E]) Close() {
	if !t.open {
		return
	}
	t.open = false
	for i := range t.txs {
		t.txs[i].Close()
	}
	var zero G
	for i := range t.view.gs {
		t.view.gs[i] = zero
	}
	t.view.order, t.view.m = 0, 0
	t.viewOK = false
	t.flat = nil
	t.c.txPool.Put(t)
}

// stitchCache is the cluster's single-slot cache of the latest stitched
// flat view, keyed by the exact version vector. One slot suffices: the
// steady state has all readers pinning the same (latest) vector, and a
// reader racing a commit simply rebuilds into the slot. The slot holds
// per-shard views alive past their versions' retirement until the next
// vector lands, which the runtime GC then reclaims — same lifetime
// discipline as the engines' own caches, one version longer at worst.
type stitchCache struct {
	mu     sync.Mutex
	stamps []uint64
	flat   ligra.Graph

	builds  atomic.Uint64 // full stitches (every shard gathered)
	patches atomic.Uint64 // delta stitches off the previous slot contents
	hits    atomic.Uint64
}

// lookup returns the cached stitched view when the slot matches the exact
// version vector, else nil. Allocation-free.
func (c *stitchCache) lookup(stamps []uint64) ligra.Graph {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.flat != nil && slices.Equal(c.stamps, stamps) {
		c.hits.Add(1)
		return c.flat
	}
	return nil
}

// base returns the slot's current view and a copy of its vector, for use
// as a delta-stitch base — any vector of matching width will do, newer or
// older (the reuse test is per-component equality). Nil when the slot is
// empty or the width differs (resharding never happens live, so that means
// an unset slot).
func (c *stitchCache) base(n int) (ligra.Graph, []uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.flat == nil || len(c.stamps) != n {
		return nil, nil
	}
	return c.flat, slices.Clone(c.stamps)
}

// store installs a freshly stitched view for the given vector. A slow
// stitcher of an older vector must not evict a newer one already in the
// slot — steady-state readers pin the newest vector, and regressing the
// slot would force them all back into O(n) rebuilds — so the store is
// skipped when the slot is component-wise at least as new as the incoming
// vector.
func (c *stitchCache) store(stamps []uint64, flat ligra.Graph) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.flat != nil && len(c.stamps) == len(stamps) {
		newer := true
		for i, s := range c.stamps {
			if s < stamps[i] {
				newer = false
				break
			}
		}
		if newer {
			return
		}
	}
	c.stamps = append(c.stamps[:0], stamps...)
	c.flat = flat
}
