package algos

import (
	"sync"

	"repro/internal/ligra"
)

// IncrementalCC maintains the connected components of an evolving
// undirected graph under batched edge updates, so a component query is two
// array reads instead of a ConnectedComponents kernel run — the standing
// sliding-window-connectivity structure the stream layer keeps hot on its
// commit path (stream.AttachIncrementalCC).
//
// Representation: every vertex carries the canonical id of its component
// (label); per canonical id the structure keeps the component's public
// label (minID — the minimum member id, matching ConnectedComponents'
// labeling exactly), its size, and a circular ring threading its members
// (next). Inserts union by relabeling the smaller component's ring —
// amortized O(log n) relabels per vertex over any insert sequence, since a
// vertex is only relabeled when its component at least doubles. Deletes are
// the hard direction for union-find; IncrementalCC confines the damage to
// the components the deleted edges touch: their members (enumerated via the
// rings, never the whole graph) are reset to singletons and re-unioned by
// scanning only their current adjacency, an O(affected-component volume)
// recompute instead of a global kernel run. Batches whose deletes all land
// in small components — the common expiry pattern — cost far below a full
// ConnectedComponents pass; a delete inside a giant component degrades to
// that component's volume, never more.
//
// Methods are safe for one writer (the engine's ingest goroutine) against
// any number of concurrent Component/Labels readers.
type IncrementalCC struct {
	mu    sync.RWMutex
	label []uint32 // vertex → canonical id of its component (a member id)
	minID []uint32 // canonical id → minimum member id (the public label)
	size  []int32  // canonical id → member count
	next  []uint32 // vertex → next member on its component's ring

	unions     uint64 // effective (merging) unions applied
	recomputes uint64 // delete batches that triggered a confined recompute
	reverified uint64 // vertices reset and re-unioned across all recomputes
}

// IncrementalCCStats is a point-in-time view of the maintenance counters:
// merging unions applied, delete-batch recomputes run, and vertices
// reverified (reset + re-unioned) across them. Queries never move any of
// these — the query path runs no kernel.
type IncrementalCCStats struct {
	Unions     uint64 `json:"unions"`
	Recomputes uint64 `json:"recomputes"`
	Reverified uint64 `json:"reverified"`
}

// NewIncrementalCC bootstraps the structure from a snapshot by unioning
// every edge once — O(n + m) — after which maintenance is incremental.
func NewIncrementalCC(g ligra.Graph) *IncrementalCC {
	cc := &IncrementalCC{}
	n := g.Order()
	cc.grow(n)
	for i := 0; i < n; i++ {
		u := uint32(i)
		g.ForEachNeighbor(u, func(v uint32) bool {
			if int(v) >= len(cc.label) {
				cc.grow(int(v) + 1)
			}
			cc.union(u, v)
			return true
		})
	}
	return cc
}

// grow extends the id space to n, adding new ids as singleton components.
// Callers hold the write lock (or own the structure exclusively).
func (cc *IncrementalCC) grow(n int) {
	for u := len(cc.label); u < n; u++ {
		cc.label = append(cc.label, uint32(u))
		cc.minID = append(cc.minID, uint32(u))
		cc.size = append(cc.size, 1)
		cc.next = append(cc.next, uint32(u))
	}
}

// union merges the components of a and b (no-op when already joined) by
// relabeling the smaller ring to the larger's canonical id and splicing the
// rings — the classic relabel-the-smaller-half argument bounds total
// relabel work at O(n log n) over any insert sequence.
func (cc *IncrementalCC) union(a, b uint32) {
	ca, cb := cc.label[a], cc.label[b]
	if ca == cb {
		return
	}
	if cc.size[ca] < cc.size[cb] {
		ca, cb = cb, ca
	}
	m := cb
	for {
		cc.label[m] = ca
		m = cc.next[m]
		if m == cb {
			break
		}
	}
	cc.size[ca] += cc.size[cb]
	if cc.minID[cb] < cc.minID[ca] {
		cc.minID[ca] = cc.minID[cb]
	}
	// Swapping two ring successors concatenates two disjoint circular
	// lists into one.
	cc.next[ca], cc.next[cb] = cc.next[cb], cc.next[ca]
	cc.unions++
}

// ApplyInsertBatch folds a batch of edge insertions in: the id space grows
// to n (the post-commit Order) and each edge unions its endpoints.
// each is called once with the edge visitor; edge direction is irrelevant
// (union is symmetric), so callers may stream either or both directions of
// an undirected batch.
func (cc *IncrementalCC) ApplyInsertBatch(n int, each func(f func(u, v uint32))) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	cc.grow(n)
	each(func(u, v uint32) {
		if m := int(max(u, v)) + 1; m > len(cc.label) {
			cc.grow(m)
		}
		cc.union(u, v)
	})
}

// ApplyDeleteBatch folds a batch of edge deletions in, given the
// post-commit snapshot g: the components touched by any deleted endpoint
// are enumerated via their member rings, reset to singletons, and
// re-unioned by scanning only those members' adjacency in g — no
// edge-existence filtering is needed, because re-union only consumes edges
// present in g, which is exactly the ground truth after the commit. Cost is
// the volume (members + their edges) of the affected components only.
//
// g must be the snapshot with this batch (and any earlier same-commit runs'
// updates) applied; scanning a newer snapshot of the same lineage is also
// correct as long as the interleaving runs are themselves applied in order.
func (cc *IncrementalCC) ApplyDeleteBatch(g ligra.Graph, each func(f func(u, v uint32))) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	// The canonical ids of every component a deleted edge touches. Deleted
	// endpoints beyond the id space were never tracked — nothing to split.
	affected := make(map[uint32]struct{})
	each(func(u, v uint32) {
		if int(u) < len(cc.label) {
			affected[cc.label[u]] = struct{}{}
		}
		if int(v) < len(cc.label) {
			affected[cc.label[v]] = struct{}{}
		}
	})
	if len(affected) == 0 {
		return
	}
	var members []uint32
	for c := range affected {
		m := c
		for {
			members = append(members, m)
			m = cc.next[m]
			if m == c {
				break
			}
		}
	}
	for _, m := range members {
		cc.label[m], cc.minID[m], cc.size[m], cc.next[m] = m, m, 1, m
	}
	for _, m := range members {
		g.ForEachNeighbor(m, func(v uint32) bool {
			if int(v) >= len(cc.label) {
				cc.grow(int(v) + 1)
			}
			cc.union(m, v)
			return true
		})
	}
	cc.recomputes++
	cc.reverified += uint64(len(members))
}

// Component returns u's component label — the minimum vertex id of its
// component, matching ConnectedComponents — in O(1): two array reads under
// a read lock, zero kernel work. Ids beyond the tracked space are their own
// singleton, mirroring ConnectedComponents' treatment of absent vertices.
func (cc *IncrementalCC) Component(u uint32) uint32 {
	cc.mu.RLock()
	defer cc.mu.RUnlock()
	if int(u) >= len(cc.label) {
		return u
	}
	return cc.minID[cc.label[u]]
}

// Labels materializes the component labeling over an id space of size n,
// element-for-element comparable with ConnectedComponents(g) for the
// matching snapshot.
func (cc *IncrementalCC) Labels(n int) []uint32 {
	cc.mu.RLock()
	defer cc.mu.RUnlock()
	out := make([]uint32, n)
	for i := range out {
		if i < len(cc.label) {
			out[i] = cc.minID[cc.label[i]]
		} else {
			out[i] = uint32(i)
		}
	}
	return out
}

// Stats returns the maintenance counters.
func (cc *IncrementalCC) Stats() IncrementalCCStats {
	cc.mu.RLock()
	defer cc.mu.RUnlock()
	return IncrementalCCStats{Unions: cc.unions, Recomputes: cc.recomputes, Reverified: cc.reverified}
}
