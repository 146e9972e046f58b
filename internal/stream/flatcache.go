package stream

import (
	"sync"
	"sync/atomic"

	"repro/internal/ligra"
)

// flatCache caches one flat view (§5.1 flat snapshot) per published
// version, keyed by stamp. A version's view is built at most once —
// whichever reader (or the ingest loop, with Options.PrebuildFlat) gets
// there first builds it under the entry's sync.Once, every other
// transaction pinning that version shares the result — and the entry is
// dropped by the engine's retire hook exactly when the version's last
// reader finishes, so the dense arrays live no longer than the snapshot
// they index.
//
// With a patcher registered (Options.PatchFlat), the cache additionally
// keeps an anchor — the newest view it ever materialized — and derives each
// new version's view from it in O(batch) copy-on-write work instead of an
// O(n) rebuild. The anchor deliberately survives the version's retirement
// (drop only evicts map entries): under PrebuildFlat versions retire the
// moment they are superseded, which would otherwise break the patch chain
// on every commit. The cost is one extra view kept alive past its version —
// the same "one version longer at worst" trade the shard stitch slot makes
// — and it is replaced, not accumulated, on the next materialization.
type flatCache[G any] struct {
	// flatten materializes the flat view of a snapshot; nil disables the
	// cache (Tx.Flat then falls back to the tree view).
	flatten func(G) ligra.Graph
	// patch derives a snapshot's flat view from a previously materialized
	// one (O(diff) instead of O(n)); nil means every view is a full build.
	patch func(prev ligra.Graph, g G) ligra.Graph

	mu sync.Mutex
	m  map[uint64]*flatEntry
	// Patch-chain anchor: the newest view materialized so far and its
	// stamp. Only kept when patch != nil — without a patcher nothing would
	// read it, and it would hold a whole flat view past its version for as
	// long as no newer one is built (a shard server that serves only delta
	// reads builds none).
	lastStamp uint64
	lastView  ligra.Graph

	builds  atomic.Uint64 // views built from scratch (≤ one per version)
	patches atomic.Uint64 // views derived from a predecessor view
	hits    atomic.Uint64 // Flat calls served from the cache
}

// flatEntry is the build-at-most-once slot of one version.
type flatEntry struct {
	once sync.Once
	view ligra.Graph
}

// viewOf returns the flat view of the version (stamp, g), building it on
// first use — or patching it out of the most recent older view when a
// patcher is registered. Callers must hold a pin on the version (a Tx, or
// the ingest loop right after publishing it), which is what keeps viewOf
// ordered before the retire-hook drop. Returns nil when no flatten is
// registered.
func (c *flatCache[G]) viewOf(stamp uint64, g G) ligra.Graph {
	if c.flatten == nil {
		return nil
	}
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[uint64]*flatEntry)
	}
	e := c.m[stamp]
	if e == nil {
		e = &flatEntry{}
		c.m[stamp] = e
	}
	c.mu.Unlock()
	built := false
	e.once.Do(func() {
		var prev ligra.Graph
		if c.patch != nil {
			c.mu.Lock()
			// Patch only forward: deriving an older version from a newer
			// view would be correct (the diff is two-sided) but would walk
			// the same batches twice on out-of-order lazy builds.
			if c.lastView != nil && c.lastStamp < stamp {
				prev = c.lastView
			}
			c.mu.Unlock()
		}
		if prev != nil {
			e.view = c.patch(prev, g)
			c.patches.Add(1)
		} else {
			e.view = c.flatten(g)
			c.builds.Add(1)
		}
		if c.patch != nil {
			c.mu.Lock()
			if stamp > c.lastStamp {
				c.lastStamp, c.lastView = stamp, e.view
			}
			c.mu.Unlock()
		}
		built = true
	})
	if !built {
		c.hits.Add(1)
	}
	return e.view
}

// drop forgets the version's cached view. Called from the retire hook; the
// version has no readers left, so nobody can be inside viewOf for it. The
// patch-chain anchor is intentionally left alone — see the type comment.
func (c *flatCache[G]) drop(stamp uint64) {
	c.mu.Lock()
	delete(c.m, stamp)
	c.mu.Unlock()
}

// size returns the number of cached views (for stats and tests).
func (c *flatCache[G]) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
