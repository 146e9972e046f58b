package algos

import (
	"sync/atomic"

	"repro/internal/ligra"
	"repro/internal/parallel"
)

// BC computes single-source betweenness-centrality contributions from src
// using the Ligra-style parallel Brandes algorithm the paper evaluates: a
// forward phase counts shortest paths level by level with atomic
// accumulation, and a backward phase propagates dependencies over the level
// structure. Returns the dependency score of every vertex.
func BC(g ligra.Graph, src uint32, noDense bool) []float64 {
	n := g.Order()
	dep := make([]float64, n)
	if int(src) >= n {
		return dep
	}
	numPaths := newAtomicFloats(n)
	level := make([]int32, n)
	for i := range level {
		level[i] = -1
	}
	numPaths.Set(src, 1)
	level[src] = 0
	frontier := ligra.FromVertex(n, src)
	levels := [][]uint32{frontier.Sparse()}
	opts := ligra.EdgeMapOpts{NoDense: noDense}
	round := int32(0)
	for !frontier.IsEmpty() {
		round++
		r := round
		// The condition stays true for targets claimed in the current
		// round so that every frontier in-neighbor contributes its path
		// count (Ligra applies the visited marking only after the
		// round; claiming via CAS on the level keeps the output
		// frontier duplicate-free while allowing further adds).
		frontier = ligra.EdgeMap(g, frontier,
			func(u, v uint32) bool {
				numPaths.Add(v, numPaths.Get(u))
				return casInt32(level, v, -1, r)
			},
			func(v uint32) bool {
				l := atomic.LoadInt32(&level[v])
				return l == -1 || l == r
			},
			opts)
		if !frontier.IsEmpty() {
			levels = append(levels, frontier.Sparse())
		}
	}
	// Backward sweep: each vertex pulls dependencies from its successors
	// one level deeper; a vertex's score is written only by its own task,
	// so no atomics are needed.
	scan := ligra.NewScan(g)
	for r := len(levels) - 2; r >= 0; r-- {
		lv, next := levels[r], int32(r+1)
		parallel.Range(len(lv), 128, func(lo, hi int) {
			var acc, pu float64
			pull := func(v uint32) bool {
				if level[v] == next {
					acc += pu / numPaths.Get(v) * (1 + dep[v])
				}
				return true
			}
			scan.List(lv[lo:hi], func(u uint32) {
				acc, pu = 0, numPaths.Get(u)
				g.ForEachNeighbor(u, pull)
				dep[u] = acc
			})
		})
	}
	return dep
}
