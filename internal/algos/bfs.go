package algos

import (
	"sync/atomic"

	"repro/internal/ligra"
)

// BFSResult holds the output of a breadth-first search.
type BFSResult struct {
	// Parents maps each reached vertex to its BFS parent (the source maps
	// to itself); unreached vertices hold -1.
	Parents []int32
	// Rounds is the number of frontier expansions (the BFS depth).
	Rounds int
	// Visited is the number of reached vertices.
	Visited int
}

// BFS runs a parallel, optionally direction-optimizing breadth-first search
// from src. With noDense set it uses only sparse (push) traversals, the
// configuration used for the fair comparisons of Table 11.
func BFS(g ligra.Graph, src uint32, noDense bool) BFSResult {
	n := g.Order()
	parents := make([]int32, n)
	for i := range parents {
		parents[i] = -1
	}
	if int(src) >= n {
		return BFSResult{Parents: parents}
	}
	parents[src] = int32(src)
	frontier := ligra.FromVertex(n, src)
	visited := 1
	rounds := 0
	opts := ligra.EdgeMapOpts{NoDense: noDense}
	claim := func(u, v uint32) bool { return casInt32(parents, v, -1, int32(u)) }
	unvisited := func(v uint32) bool { return atomic.LoadInt32(&parents[v]) == -1 }
	for !frontier.IsEmpty() {
		rounds++
		frontier = ligra.EdgeMap(g, frontier, claim, unvisited, opts)
		visited += frontier.Size()
	}
	return BFSResult{Parents: parents, Rounds: rounds, Visited: visited}
}

// Distances derives hop distances from BFS parents (-1 when unreached).
func (r BFSResult) Distances() []int32 {
	n := len(r.Parents)
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	// Resolve each vertex by walking to the root, memoizing along the way.
	var walk func(v int32) int32
	walk = func(v int32) int32 {
		if dist[v] >= 0 {
			return dist[v]
		}
		p := r.Parents[v]
		if p < 0 {
			return -1
		}
		if p == v {
			dist[v] = 0
			return 0
		}
		d := walk(p)
		if d < 0 {
			return -1
		}
		dist[v] = d + 1
		return dist[v]
	}
	for v := range r.Parents {
		if r.Parents[v] >= 0 {
			walk(int32(v))
		}
	}
	return dist
}
