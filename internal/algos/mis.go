package algos

import (
	"sync/atomic"

	"repro/internal/ligra"
	"repro/internal/parallel"
	"repro/internal/xhash"
)

// Vertex states for MIS.
const (
	misUndecided int32 = iota
	misIn
	misOut
)

// MIS computes a maximal independent set with the rootset-based parallel
// greedy algorithm (random priorities; a vertex enters the set when it beats
// every undecided neighbor, its neighbors leave). Deterministic for a fixed
// seed, O(log n) rounds w.h.p. Returns membership flags.
func MIS(g ligra.Graph, seed uint64) []bool {
	n := g.Order()
	status := make([]int32, n)
	prio := make([]uint64, n)
	parallel.For(n, func(i int) {
		prio[i] = xhash.Seeded(seed, uint64(i))<<20 | uint64(i)
	})
	remaining := int64(n)
	scan := ligra.NewScan(g)
	undecided := func(v uint32) bool { return atomic.LoadInt32(&status[v]) == misUndecided }
	for remaining > 0 {
		// Phase 1: decide entrants against a frozen view of status.
		enter := make([]bool, n)
		var entered atomic.Int64
		parallel.Range(n, 256, func(lo, hi int) {
			sc := scan
			var v uint32
			var wins bool
			contest := func(u uint32) bool {
				s := atomic.LoadInt32(&status[u])
				if s == misIn || (s == misUndecided && prio[u] < prio[v]) {
					wins = false
				}
				return wins
			}
			won := 0
			sc.Range(lo, hi, undecided, func(u uint32) {
				v, wins = u, true
				g.ForEachNeighbor(v, contest)
				if wins {
					enter[v] = true
					won++
				}
			})
			entered.Add(int64(won))
		})
		if entered.Load() == 0 {
			// No vertex can win only if the graph is empty of
			// undecided vertices; guard against livelock.
			break
		}
		// Phase 2: commit entrants and retire their neighbors.
		var retired atomic.Int64
		parallel.Range(n, 256, func(lo, hi int) {
			sc := scan
			out := 0
			retire := func(u uint32) bool {
				if atomic.CompareAndSwapInt32(&status[u], misUndecided, misOut) {
					out++
				}
				return true
			}
			sc.Range(lo, hi, func(v uint32) bool { return enter[v] }, func(v uint32) {
				atomic.StoreInt32(&status[v], misIn)
				out++
				g.ForEachNeighbor(v, retire)
			})
			retired.Add(int64(out))
		})
		remaining -= retired.Load()
	}
	in := make([]bool, n)
	parallel.For(n, func(i int) { in[i] = status[i] == misIn })
	return in
}
