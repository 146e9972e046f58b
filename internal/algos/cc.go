package algos

import (
	"slices"
	"sync/atomic"

	"repro/internal/ligra"
	"repro/internal/parallel"
)

// Sampling constants of ConnectedComponents. They steer work only: any
// values give the same labels.
const (
	// ccLinkFirst is how many neighbors every vertex links before sampling.
	// Two is enough to stitch most of a giant component together.
	ccLinkFirst = 2
	// ccSampleSize is how many vertices are probed to guess the dominant
	// component.
	ccSampleSize = 1024
	// ccGrain is the vertex block size of the parallel passes.
	ccGrain = 1024
)

// ConnectedComponents labels every vertex with the minimum vertex id of its
// component — the labeling IncrementalCC.Labels maintains — with a
// concurrent union-find over the symmetric neighbor lists (an extension
// beyond the paper's five benchmark algorithms). Vertices absent from the
// graph label themselves.
//
// Roots hook larger-under-smaller by CAS and finds halve paths, so parent
// ids only ever decrease, the forest stays acyclic under any interleaving,
// and a component's final root is its minimum id whatever the schedule.
// Neighbor sampling saves most of the edge reads: every vertex first links
// ccLinkFirst neighbors, a fixed-size sample then names the most common
// root, and only vertices outside that component go on to link all their
// edges. Skipping a vertex u of component C is safe for any C: an edge
// (u, v) with v in C is already spanned, and one with v outside C is linked
// from v's side, since v is not skipped and the lists are symmetric. A poor
// sample therefore costs time, never correctness.
func ConnectedComponents(g ligra.Graph) []uint32 {
	n := g.Order()
	parent := make([]uint32, n)
	if n == 0 {
		return parent
	}
	parallel.Range(n, ccGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			parent[i] = uint32(i)
		}
	})
	// link unites every vertex keep holds for (nil: all) with its neighbors
	// — the first `first` of them, or all when first is 0 (left then counts
	// down from 0 and never returns to it). The neighbor callback is built
	// once per block and reads the vertex from st, the one object a block
	// allocates besides its two closures.
	scan := ligra.NewScan(g)
	link := func(first int, keep func(u uint32) bool) {
		parallel.Range(n, ccGrain, func(lo, hi int) {
			st := &struct {
				ligra.Scan
				u    uint32
				left int
			}{Scan: scan}
			visit := func(v uint32) bool {
				ufUnite(parent, st.u, v)
				st.left--
				return st.left != 0
			}
			st.Range(lo, hi, keep, func(u uint32) {
				st.u, st.left = u, first
				g.ForEachNeighbor(u, visit)
			})
		})
	}
	link(ccLinkFirst, nil)
	big := ufSampleRoot(parent)
	link(0, func(u uint32) bool { return ufFind(parent, u) != ufFind(parent, big) })
	// Flatten: every hook is done, so each find returns the component's
	// final root. Writes stay atomic because other blocks' finds still walk
	// through these slots.
	parallel.Range(n, ccGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.StoreUint32(&parent[i], ufFind(parent, uint32(i)))
		}
	})
	return parent
}

// ufFind returns the root of x, halving the path it walks. Safe against
// concurrent hooks and halvings: a non-root slot is only ever redirected to
// one of its own ancestors.
func ufFind(parent []uint32, x uint32) uint32 {
	for {
		p := atomic.LoadUint32(&parent[x])
		if p == x {
			return x
		}
		gp := atomic.LoadUint32(&parent[p])
		if gp == p {
			return p
		}
		atomic.CompareAndSwapUint32(&parent[x], p, gp)
		x = gp
	}
}

// ufUnite merges the components of u and v by hooking the larger root under
// the smaller. The CAS only succeeds while the larger root still is one;
// otherwise somebody else hooked it first and the finds are retried.
func ufUnite(parent []uint32, u, v uint32) {
	for {
		u, v = ufFind(parent, u), ufFind(parent, v)
		if u == v {
			return
		}
		if u < v {
			u, v = v, u
		}
		if atomic.CompareAndSwapUint32(&parent[u], u, v) {
			return
		}
	}
}

// ufSampleRoot probes ccSampleSize evenly spread vertices of a non-empty id
// space and returns the root most of them share.
func ufSampleRoot(parent []uint32) (root uint32) {
	n := len(parent)
	var roots [ccSampleSize]uint32
	for i := range roots {
		roots[i] = ufFind(parent, uint32(uint64(i)*uint64(n)/ccSampleSize))
	}
	slices.Sort(roots[:])
	best, run := 0, 0
	for i, r := range roots {
		if i > 0 && r == roots[i-1] {
			run++
		} else {
			run = 1
		}
		if run > best {
			best, root = run, r
		}
	}
	return root
}

// PageRank runs classic damped power iteration (damping 0.85) until the L1
// change drops below tol or maxIters passes, treating the symmetric neighbor
// lists as both in- and out-edges. Returns the final rank vector, which sums
// to 1 over the id space.
func PageRank(g ligra.Graph, tol float64, maxIters int) []float64 {
	const damping = 0.85
	n := g.Order()
	if n == 0 {
		return nil
	}
	cur := make([]float64, n)
	next := make([]float64, n)
	share := make([]float64, n) // cur[u] / deg(u): what u sends along each edge
	deg := make([]float64, n)
	inv := 1.0 / float64(n)
	parallel.Range(n, 1024, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			cur[i] = inv
			deg[i] = float64(g.Degree(uint32(i)))
		}
	})
	scan := ligra.NewScan(g)
	for iter := 0; iter < maxIters; iter++ {
		// Dangling mass (degree-0 ids) is redistributed uniformly.
		var danglingMass float64
		for i := 0; i < n; i++ {
			if deg[i] == 0 {
				danglingMass += cur[i]
			} else {
				share[i] = cur[i] / deg[i]
			}
		}
		base := (1-damping)*inv + damping*danglingMass*inv
		parallel.Range(n, 256, func(lo, hi int) {
			sc := scan
			var acc float64
			pull := func(u uint32) bool {
				acc += share[u]
				return true
			}
			sc.Range(lo, hi, nil, func(v uint32) {
				acc = 0
				g.ForEachNeighbor(v, pull)
				next[v] = base + damping*acc
			})
		})
		var delta float64
		for i := 0; i < n; i++ {
			d := next[i] - cur[i]
			if d < 0 {
				d = -d
			}
			delta += d
		}
		cur, next = next, cur
		if delta < tol {
			break
		}
	}
	return cur
}
