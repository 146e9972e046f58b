package shard

import (
	"repro/internal/aspen"
	"repro/internal/ctree"
)

// Route splits one edge batch into per-shard sub-batches by the owner of
// each edge's source vertex. The split is a stable counting scatter into a
// single backing array — one pass to count, one to place — and every
// returned sub-batch is a subslice of that array (the zero-copy
// groupBySource discipline of PR 1 applied across engines): no per-shard
// re-allocation, and within a shard the batch order is preserved, so
// same-shard insert/delete sequencing survives routing. Entry s of the
// result is nil when shard s received no edges. The input slice is not
// modified.
func Route[E any](p Partitioner, edges []E, srcOf func(E) uint32) [][]E {
	s := p.Shards()
	out := make([][]E, s)
	if len(edges) == 0 {
		return out
	}
	if s == 1 {
		out[0] = edges
		return out
	}
	owners := make([]int32, len(edges))
	counts := make([]int, s)
	for i, e := range edges {
		o := p.Owner(srcOf(e))
		owners[i] = int32(o)
		counts[o]++
	}
	backing := make([]E, len(edges))
	// Exclusive prefix sums give each shard its region of the backing
	// array; the sequential scatter keeps per-shard batch order stable.
	offsets := make([]int, s)
	sum := 0
	for i, c := range counts {
		offsets[i] = sum
		sum += c
	}
	next := append([]int(nil), offsets...)
	for i, e := range edges {
		o := owners[i]
		backing[next[o]] = e
		next[o]++
	}
	for i := 0; i < s; i++ {
		if counts[i] > 0 {
			out[i] = backing[offsets[i] : offsets[i]+counts[i] : offsets[i]+counts[i]]
		}
	}
	return out
}

// EdgeSource is the router key for aspen edge updates of any payload.
func EdgeSource[V ctree.Value](e aspen.EdgeOf[V]) uint32 { return e.Src }
