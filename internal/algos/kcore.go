package algos

import (
	"sync"
	"sync/atomic"

	"repro/internal/ligra"
	"repro/internal/parallel"
)

// KCore computes the coreness of every vertex by parallel bucketed peeling
// (the Julienne-style bucketing algorithm the paper cites as running on
// Aspen [24]): vertices are peeled in rounds of non-decreasing induced
// degree; a vertex's coreness is the bucket at which it is peeled.
func KCore(g ligra.Graph) []uint32 {
	n := g.Order()
	deg := make([]int32, n)
	parallel.For(n, func(i int) { deg[i] = int32(g.Degree(uint32(i))) })
	coreness := make([]uint32, n)
	peeled := make([]int32, n) // 0 = live, 1 = peeled
	remaining := int64(0)
	for i := 0; i < n; i++ {
		if deg[i] > 0 {
			remaining++
		} else {
			peeled[i] = 1 // isolated ids have coreness 0
		}
	}
	scan := ligra.NewScan(g)
	k := int32(0)
	for remaining > 0 {
		// Frontier: live vertices whose induced degree dropped to <= k.
		frontier := parallel.PackIndices(n, func(i int) bool {
			return peeled[i] == 0 && atomic.LoadInt32(&deg[i]) <= k
		})
		if len(frontier) == 0 {
			k++
			continue
		}
		for len(frontier) > 0 {
			// Peel the frontier; their neighbors lose induced degree
			// and may fall into the same bucket (coreness k).
			for _, v := range frontier {
				peeled[v] = 1
				coreness[v] = uint32(k)
			}
			remaining -= int64(len(frontier))
			var mu sync.Mutex
			next := make(map[uint32]bool)
			parallel.Range(len(frontier), 128, func(lo, hi int) {
				drop := func(u uint32) bool {
					if atomic.LoadInt32(&peeled[u]) == 1 {
						return true
					}
					if atomic.AddInt32(&deg[u], -1) <= k {
						mu.Lock()
						next[u] = true
						mu.Unlock()
					}
					return true
				}
				scan.List(frontier[lo:hi], func(v uint32) { g.ForEachNeighbor(v, drop) })
			})
			frontier = frontier[:0]
			for u := range next {
				if atomic.LoadInt32(&peeled[u]) == 0 {
					frontier = append(frontier, u)
				}
			}
		}
		k++
	}
	return coreness
}

// MaxCore returns the largest coreness value (the graph's degeneracy).
func MaxCore(coreness []uint32) uint32 {
	var maxC uint32
	for _, c := range coreness {
		if c > maxC {
			maxC = c
		}
	}
	return maxC
}
