// Package shard scales the serving layer across writers: a Cluster runs N
// independent stream.Engine instances — each the single writer for one
// slice of the vertex-id space — behind one facade. A
// Partitioner assigns every vertex to exactly one shard by its *source*
// endpoint, so each shard holds the complete out-adjacency of the vertices
// it owns over the full id space; a Router splits incoming edge batches
// into per-shard sub-batches (subslices of one backing array, the zero-copy
// discipline of PR 1) and submits them to all shard writers concurrently.
//
// Purely-functional snapshots make the cross-shard consistency story
// simple: a "global snapshot" is a vector of immutable per-shard roots. A
// Tx pins one refcounted version per shard — a version vector — and serves
// the whole vector through the ligra traversal interfaces (View for the
// tree path, a stitched FlatView for the §5.1 fast path), so every algos
// kernel runs unmodified on a sharded snapshot. Each component of the
// vector is a committed prefix of its shard's serialized history; after
// Barrier (all shards flushed, writers quiet) the vector is exactly the
// global graph, which is what the differential tests pin against the
// single-engine ground truth.
package shard

import (
	"repro/internal/xhash"
)

// Partitioner maps every vertex id to the shard that owns it. Ownership is
// by source vertex: shard Owner(u) holds all of u's out-edges (on the
// symmetrized graphs this repository serves, that is u's full adjacency).
// Owner must be a pure function onto [0, Shards()) over the entire uint32
// id space — destinations of routed edges land on whatever shard owns
// their source, so every shard must be able to answer Owner for any id.
type Partitioner interface {
	// Shards returns the number of shards S (≥ 1).
	Shards() int
	// Owner returns the shard index of u, in [0, S).
	Owner(u uint32) int
}

// RangePartitioner splits the id space [0, Span) into contiguous,
// nearly-equal vertex ranges: shard s owns [s*width, (s+1)*width), with ids
// ≥ Span falling into the last shard. Contiguous ranges keep each shard's
// vertex-tree a compact id interval (good locality, cheap flat stitching)
// but inherit any skew in the id assignment.
type RangePartitioner struct {
	shards int
	width  uint64
}

// NewRangePartitioner partitions [0, span) into shards contiguous ranges.
// shards is clamped to ≥ 1; a zero span makes one shard own everything.
func NewRangePartitioner(shards int, span uint32) RangePartitioner {
	if shards < 1 {
		shards = 1
	}
	width := (uint64(span) + uint64(shards) - 1) / uint64(shards)
	if width == 0 {
		width = 1 << 32 // single-shard or empty span: everything in shard 0
	}
	return RangePartitioner{shards: shards, width: width}
}

// Shards returns the shard count.
func (p RangePartitioner) Shards() int { return p.shards }

// Owner returns u's shard: u/width, clamped into the last shard for ids at
// or beyond the partitioned span.
func (p RangePartitioner) Owner(u uint32) int {
	s := uint64(u) / p.width
	if s >= uint64(p.shards) {
		return p.shards - 1
	}
	return int(s)
}

// Range returns the id interval [lo, hi) owned by shard s; the last shard's
// interval extends to the end of the uint32 space.
func (p RangePartitioner) Range(s int) (lo, hi uint64) {
	lo = uint64(s) * p.width
	hi = lo + p.width
	if s == p.shards-1 {
		hi = 1 << 32
	}
	return lo, hi
}

// HashPartitioner spreads ids over shards by a mixed 64-bit hash —
// insensitive to skewed or clustered id ranges, at the cost of scattering
// each shard's vertices across the whole id space (flat stitching then
// walks ids instead of copying ranges).
type HashPartitioner struct {
	shards int
}

// NewHashPartitioner returns a hash partitioner over shards shards
// (clamped to ≥ 1).
func NewHashPartitioner(shards int) HashPartitioner {
	if shards < 1 {
		shards = 1
	}
	return HashPartitioner{shards: shards}
}

// Shards returns the shard count.
func (p HashPartitioner) Shards() int { return p.shards }

// Owner returns the shard of u by mixing the id through xhash.
func (p HashPartitioner) Owner(u uint32) int {
	return int(xhash.Mix32(u) % uint64(p.shards))
}
