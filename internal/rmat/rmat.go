// Package rmat provides the deterministic graph and update-stream generator:
// the rMAT recursive-matrix generator (Chakrabarti et al., SDM 2004) with the
// paper's parameters a=0.5, b=c=0.1, d=0.3 (§7.4). Edge i of a stream
// depends only on (seed, i); the 9:1 insert/delete schedule the streaming
// experiments draw from it is stream.UpdateScheduleMix.
package rmat

import (
	"math"

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
func (g Generator) Edge(i uint64) aspen.Edge { return g.cuts().edge(g.Seed, g.Scale, i) }

// Edges materializes edges [lo, hi) of the stream in parallel.
func (g Generator) Edges(lo, hi uint64) []aspen.Edge {
	c := g.cuts()
	out := make([]aspen.Edge, hi-lo)
	parallel.ForGrain(int(hi-lo), 512, func(i int) {
		out[i] = c.edge(g.Seed, g.Scale, lo+uint64(i))
	})
	return out
}

// Adjacency builds symmetric adjacency lists from the first m generated
// edges (self-loops dropped, both directions added, duplicates removed).
func (g Generator) Adjacency(m uint64) [][]uint32 {
	return BuildAdjacency(g.NumVertices(), g.Edges(0, m))
}

// cuts are the quadrant thresholds of one level on the integer scale of
// xhash.RNG.Float64: that draw is p = m / 2^53 for m = Next() >> 11, both
// steps exact, so p < t holds exactly when m < ceil(t · 2^53). A level
// picks the first quadrant whose running sum A, A+B, A+B+C exceeds p, so
// the stream is the one the float comparisons give, bit for bit, for any
// parameters.
type cuts struct{ a, ab, abc uint64 }

func (g Generator) cuts() cuts {
	a := cut(g.A)
	ab := max(a, cut(g.A+g.B)) // monotone: the first matching case wins
	return cuts{a: a, ab: ab, abc: max(ab, cut(g.A+g.B+g.C))}
}

// cut returns the smallest m in [0, 2^53] with m >= t · 2^53, so that for
// every 53-bit m, m < cut(t) exactly when m / 2^53 < t. NaN compares false
// with everything, and so cuts at 0.
func cut(t float64) uint64 {
	const one = 1 << 53
	x := math.Ceil(t * one) // scaling by a power of two is exact
	switch {
	case x >= one:
		return one
	case x > 0:
		return uint64(x)
	default: // x <= 0 or NaN
		return 0
	}
}

// edge is Generator.Edge under cuts c. Each level draws one 53-bit m and
// sets u's bit when m >= ab (quadrants c and d) and v's bit in quadrants b
// and d, the parity of the three comparisons; (m - k) >> 63 is m < k for
// m, k <= 2^53, so no level branches.
func (c cuts) edge(seed uint64, scale int, i uint64) aspen.Edge {
	r := xhash.NewRNG(xhash.Seeded(seed, i))
	var u, v uint64
	for range scale {
		m := r.Next() >> 11
		la, lab, labc := (m-c.a)>>63, (m-c.ab)>>63, (m-c.abc)>>63
		u = u<<1 | (lab ^ 1)
		v = v<<1 | (la ^ lab ^ labc ^ 1)
	}
	return aspen.Edge{Src: uint32(u), Dst: uint32(v)}
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
