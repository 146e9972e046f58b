// Package rmat provides deterministic graph and update-stream generators:
// the rMAT recursive-matrix generator (Chakrabarti et al., SDM 2004) with the
// paper's parameters a=0.5, b=c=0.1, d=0.3 (§7.4), a uniform random
// generator, and the update-stream sampler of §7.3 that draws updates from an
// existing graph so deletions perform non-trivial work.
package rmat

import (
	"repro/internal/aspen"
	"repro/internal/parallel"
	"repro/internal/xhash"
)

// Generator produces rMAT edges deterministically: edge i depends only on
// (seed, i), so streams are reproducible and indexable without state.
type Generator struct {
	// Scale is log2 of the number of vertices.
	Scale int
	// A, B, C are the recursive quadrant probabilities (D = 1-A-B-C).
	A, B, C float64
	// Seed selects the stream.
	Seed uint64
}

// NewGenerator returns a generator with the paper's parameters
// (a=0.5, b=c=0.1, d=0.3).
func NewGenerator(scale int, seed uint64) Generator {
	return Generator{Scale: scale, A: 0.5, B: 0.1, C: 0.1, Seed: seed}
}

// NumVertices returns 2^Scale.
func (g Generator) NumVertices() int { return 1 << g.Scale }

// Edge returns the i-th edge of the stream.
func (g Generator) Edge(i uint64) aspen.Edge {
	r := xhash.NewRNG(xhash.Seeded(g.Seed, i))
	var u, v uint32
	for level := g.Scale - 1; level >= 0; level-- {
		p := r.Float64()
		switch {
		case p < g.A:
			// top-left quadrant: no bits set
		case p < g.A+g.B:
			v |= 1 << uint(level)
		case p < g.A+g.B+g.C:
			u |= 1 << uint(level)
		default:
			u |= 1 << uint(level)
			v |= 1 << uint(level)
		}
	}
	return aspen.Edge{Src: u, Dst: v}
}

// Edges materializes edges [lo, hi) of the stream in parallel.
func (g Generator) Edges(lo, hi uint64) []aspen.Edge {
	out := make([]aspen.Edge, hi-lo)
	parallel.ForGrain(int(hi-lo), 512, func(i int) {
		out[i] = g.Edge(lo + uint64(i))
	})
	return out
}

// Adjacency builds symmetric adjacency lists from the first m generated
// edges (self-loops dropped, both directions added, duplicates removed).
func (g Generator) Adjacency(m uint64) [][]uint32 {
	return BuildAdjacency(g.NumVertices(), g.Edges(0, m))
}

// Uniform produces uniformly random edges over n vertices, deterministic in
// (seed, i).
type Uniform struct {
	N    int
	Seed uint64
}

// Edge returns the i-th edge of the uniform stream.
func (u Uniform) Edge(i uint64) aspen.Edge {
	h := xhash.Seeded(u.Seed, i)
	return aspen.Edge{
		Src: uint32(h % uint64(u.N)),
		Dst: uint32((h >> 32) % uint64(u.N)),
	}
}

// Edges materializes edges [lo, hi) of the stream.
func (u Uniform) Edges(lo, hi uint64) []aspen.Edge {
	out := make([]aspen.Edge, hi-lo)
	parallel.ForGrain(int(hi-lo), 512, func(i int) {
		out[i] = u.Edge(lo + uint64(i))
	})
	return out
}

// BuildAdjacency symmetrizes a directed edge list into sorted, deduplicated
// adjacency lists over n vertices, dropping self-loops — the preprocessing
// the paper applies to all inputs (§7, "we symmetrized the graphs").
func BuildAdjacency(n int, edges []aspen.Edge) [][]uint32 {
	adj := make([][]uint32, n)
	for _, e := range edges {
		if e.Src == e.Dst || int(e.Src) >= n || int(e.Dst) >= n {
			continue
		}
		adj[e.Src] = append(adj[e.Src], e.Dst)
		adj[e.Dst] = append(adj[e.Dst], e.Src)
	}
	parallel.ForGrain(n, 64, func(u int) {
		parallel.SortUint32(adj[u])
		adj[u] = parallel.DedupSortedUint32(adj[u])
	})
	return adj
}
