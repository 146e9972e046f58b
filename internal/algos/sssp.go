package algos

import (
	"container/heap"
	"math"
	"sync/atomic"

	"repro/internal/ligra"
)

// Single-source shortest paths over the weighted traversal interface: a
// frontier-based Bellman-Ford in the style of Ligra's SSSP, running over
// WeightedEdgeMap so the exact same code serves Aspen's compressed weighted
// snapshots and any other engine exposing ForEachNeighborW. Weights must be
// non-negative (the atomic write-min below relies on the IEEE-754 ordering
// of non-negative float bit patterns).

// Inf is the distance reported for unreachable vertices.
var Inf = float32(math.Inf(1))

// writeMinF32 atomically lowers the float32 stored in bits to d, reporting
// whether it changed the value. For non-negative floats the uint32 bit
// pattern preserves order, so CAS on the bits implements min.
func writeMinF32(bits *atomic.Uint32, d float32) bool {
	db := math.Float32bits(d)
	for {
		cur := bits.Load()
		if db >= cur {
			return false
		}
		if bits.CompareAndSwap(cur, db) {
			return true
		}
	}
}

// SSSP computes shortest-path distances from src over non-negatively
// weighted edges. Bellman-Ford with frontier sparsification: each round
// relaxes only the out-edges of vertices whose distance improved, via
// direction-optimizing WeightedEdgeMap. O(diameter) rounds on
// non-negative inputs; a round cap of |V| guards against pathological
// inputs. Returns +Inf for unreachable vertices.
func SSSP(g ligra.WeightedGraph, src uint32) []float32 {
	n := g.Order()
	dist := make([]atomic.Uint32, n)
	infBits := math.Float32bits(Inf)
	for i := range dist {
		dist[i].Store(infBits)
	}
	out := make([]float32, n)
	if int(src) >= n {
		for i := range out {
			out[i] = Inf
		}
		return out
	}
	dist[src].Store(0)
	// visited dedupes frontier membership within a round by stamping each
	// claimed vertex with the round number: a vertex joins round r's output
	// frontier on the first successful CAS from a stale stamp to r. Stamps
	// from earlier rounds are simply stale, so no per-round reset pass is
	// needed: the VertexMap reset stays out of the hot loop. Stamp 0 means "never claimed"; rounds start at 1.
	visited := make([]atomic.Uint32, n)
	round := uint32(0)
	frontier := ligra.FromVertex(n, src)
	relax := func(s, d uint32, w float32) bool {
		nd := math.Float32frombits(dist[s].Load()) + w
		if writeMinF32(&dist[d], nd) {
			for {
				cur := visited[d].Load()
				if cur == round {
					return false
				}
				if visited[d].CompareAndSwap(cur, round) {
					return true
				}
			}
		}
		return false
	}
	cond := func(uint32) bool { return true }
	for rounds := 0; !frontier.IsEmpty() && rounds < n; rounds++ {
		round++
		frontier = ligra.WeightedEdgeMap(g, frontier, relax, cond, ligra.EdgeMapOpts{})
	}
	for i := range out {
		out[i] = math.Float32frombits(dist[i].Load())
	}
	return out
}

// pqItem is a Dijkstra priority-queue entry.
type pqItem struct {
	v    uint32
	dist float32
}

type ssspPQ []pqItem

func (p ssspPQ) Len() int           { return len(p) }
func (p ssspPQ) Less(i, j int) bool { return p[i].dist < p[j].dist }
func (p ssspPQ) Swap(i, j int)      { p[i], p[j] = p[j], p[i] }
func (p *ssspPQ) Push(x any)        { *p = append(*p, x.(pqItem)) }
func (p *ssspPQ) Pop() any          { old := *p; it := old[len(old)-1]; *p = old[:len(old)-1]; return it }

// DijkstraRef is the sequential reference implementation used to validate
// SSSP in tests (and as a baseline in benchmarks). Same contract as SSSP.
func DijkstraRef(g ligra.WeightedGraph, src uint32) []float32 {
	n := g.Order()
	dist := make([]float32, n)
	for i := range dist {
		dist[i] = Inf
	}
	if int(src) >= n {
		return dist
	}
	dist[src] = 0
	pq := &ssspPQ{{v: src, dist: 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(pqItem)
		if it.dist > dist[it.v] {
			continue
		}
		g.ForEachNeighborW(it.v, func(u uint32, w float32) bool {
			if nd := it.dist + w; nd < dist[u] {
				dist[u] = nd
				heap.Push(pq, pqItem{v: u, dist: nd})
			}
			return true
		})
	}
	return dist
}
