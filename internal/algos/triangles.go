package algos

import (
	"sync/atomic"

	"repro/internal/ligra"
	"repro/internal/parallel"
)

// TriangleCount returns the number of triangles in the symmetric graph g
// using the standard rank-ordered merge algorithm from the paper's algorithm
// suite source [25]: for every edge (u, v) with u < v, it sums the size of
// the intersection of N(u) and N(v) restricted to ids greater than v, so
// each triangle is counted exactly once at its smallest vertex. Neighbor
// lists must be sorted (true for Aspen, flat snapshots and CSR engines).
func TriangleCount(g ligra.Graph) uint64 {
	n := g.Order()
	// Materialize sorted adjacency once: the merge-based intersection
	// needs indexed access.
	adj := make([][]uint32, n)
	scan := ligra.NewScan(g)
	parallel.Range(n, 64, func(lo, hi int) {
		sc := scan
		var lst []uint32
		collect := func(v uint32) bool {
			lst = append(lst, v)
			return true
		}
		sc.Range(lo, hi, nil, func(v uint32) {
			d := g.Degree(v)
			if d == 0 {
				return
			}
			lst = make([]uint32, 0, d)
			g.ForEachNeighbor(v, collect)
			adj[v] = lst
		})
	})
	var total atomic.Uint64
	parallel.ForGrain(n, 16, func(i int) {
		u := uint32(i)
		var local uint64
		for _, v := range adj[i] {
			if v <= u {
				continue
			}
			local += intersectAbove(adj[u], adj[v], v)
		}
		if local > 0 {
			total.Add(local)
		}
	})
	return total.Load()
}

// intersectAbove counts common elements of sorted a and b strictly greater
// than lo.
func intersectAbove(a, b []uint32, lo uint32) uint64 {
	i, j := upper(a, lo), upper(b, lo)
	var count uint64
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			count++
			i++
			j++
		}
	}
	return count
}

// upper returns the index of the first element > lo in sorted a.
func upper(a []uint32, lo uint32) int {
	l, r := 0, len(a)
	for l < r {
		m := (l + r) / 2
		if a[m] <= lo {
			l = m + 1
		} else {
			r = m
		}
	}
	return l
}
