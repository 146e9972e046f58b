package main

import (
	"repro/internal/aspen"
	"repro/internal/csr"
	"repro/internal/parallel"
	"repro/internal/rmat"
	"repro/internal/stream"
)

// batch is one generated update: the slice the system under test receives.
type batch struct {
	del   bool
	edges []aspen.Edge // both directions of every sampled edge
}

// inputs is everything the generator makes from the seed before timing
// starts. The system under test never sees the seed, only these slices.
type inputs struct {
	preload   []aspen.Edge
	paced     []batch
	saturated []batch
}

// generate cuts one deterministic rMAT stream into the preload and the two
// phases' batches. The 9:1 insert/delete schedule is the repository's own
// (stream.UpdateScheduleMix): a delete batch replays the oldest recently
// inserted range, so deletions do real work.
func generate(seed uint64, sh shape, w workload, pacedN, satN int) inputs {
	gen := rmat.NewGenerator(sh.scale, seed)
	mk := func(lo, hi uint64) []aspen.Edge { return aspen.MakeUndirected(gen.Edges(lo, hi)) }
	in := inputs{preload: mk(0, uint64(sh.preloadEdges))}
	next := stream.UpdateScheduleMix(uint64(sh.preloadEdges), uint64(sh.batchEdges*w.batchMul), uint64(sh.deletePeriod), mk)
	all := make([]batch, pacedN+satN)
	for i := range all {
		all[i].del, all[i].edges = next(uint64(i))
	}
	in.paced, in.saturated = all[:pacedN:pacedN], all[pacedN:]
	return in
}

// reference replays the inputs on a model that shares nothing with the
// system under test — the last operation on an edge decides whether it is
// there (a stable sort by edge, then keep-last) — and returns the resulting
// graph as a static CSR. It stands in for a replay through bare aspen.Graph
// calls, which gives the same graph but costs as long again as the
// saturated phase on every run.
func reference(in inputs) *csr.Graph {
	n := len(in.preload)
	for _, phase := range [][]batch{in.paced, in.saturated} {
		n += int(directedEdges(phase))
	}
	keys, dels := make([]uint64, 0, n), make([]bool, 0, n)
	add := func(del bool, edges []aspen.Edge) {
		for _, e := range edges {
			keys = append(keys, uint64(e.Src)<<32|uint64(e.Dst))
			dels = append(dels, del)
		}
	}
	add(false, in.preload)
	for _, phase := range [][]batch{in.paced, in.saturated} {
		for _, b := range phase {
			add(b.del, b.edges)
		}
	}
	parallel.RadixSortUint64Pairs(keys, dels)
	keys, dels = parallel.DedupSortedUint64PairsLast(keys, dels)
	var adj [][]uint32
	for i, k := range keys {
		if dels[i] {
			continue
		}
		src := int(k >> 32)
		for len(adj) <= src {
			adj = append(adj, nil)
		}
		adj[src] = append(adj[src], uint32(k))
	}
	return csr.FromAdjacency(adj)
}

func directedEdges(bs []batch) uint64 {
	var n uint64
	for _, b := range bs {
		n += uint64(len(b.edges))
	}
	return n
}
