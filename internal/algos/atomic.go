// Package algos implements the paper's algorithm suite (§7: BFS, BC, MIS,
// 2-hop and Local-Cluster) plus connected components and PageRank as
// extensions, all written once against the ligra.Graph interface so they run
// unchanged over Aspen snapshots, flat snapshots and every baseline engine.
//
// A kernel that scans neighbor lists outside ligra.EdgeMap runs its vertex
// loop per block (parallel.Range) and builds the ForEachNeighbor callback
// once per block, reading the current vertex from a block-local variable: a
// closure literal that captures the loop vertex escapes through the interface
// call and costs one heap object per vertex per pass.
package algos

import (
	"math"
	"sync/atomic"
)

// atomicFloats is a float64 array supporting atomic accumulation, stored as
// raw bits so compare-and-swap applies (Ligra's BC uses the same
// fetch-and-add-on-double primitive).
type atomicFloats []uint64

func newAtomicFloats(n int) atomicFloats { return make(atomicFloats, n) }

// Add atomically adds delta to element i.
func (a atomicFloats) Add(i uint32, delta float64) {
	for {
		old := atomic.LoadUint64(&a[i])
		new := math.Float64bits(math.Float64frombits(old) + delta)
		if atomic.CompareAndSwapUint64(&a[i], old, new) {
			return
		}
	}
}

// Get reads element i.
func (a atomicFloats) Get(i uint32) float64 {
	return math.Float64frombits(atomic.LoadUint64(&a[i]))
}

// Set stores v into element i (non-atomic contexts only).
func (a atomicFloats) Set(i uint32, v float64) {
	atomic.StoreUint64(&a[i], math.Float64bits(v))
}

// casInt32 claims slot i from expected old to new.
func casInt32(a []int32, i uint32, old, new int32) bool {
	return atomic.CompareAndSwapInt32(&a[i], old, new)
}
