package ligra

import (
	"testing"

	"repro/internal/parallel"
)

// flatStub is a minimal FlatGraph over explicit adjacency, for exercising
// the degree-array routing without importing aspen (avoids a test-only
// dependency cycle).
type flatStub struct {
	adj  [][]uint32
	degs []int32
	m    uint64
}

func newFlatStub(adj [][]uint32) *flatStub {
	s := &flatStub{adj: adj, degs: make([]int32, len(adj))}
	for u, ns := range adj {
		s.degs[u] = int32(len(ns))
		s.m += uint64(len(ns))
	}
	return s
}

func (s *flatStub) Order() int          { return len(s.adj) }
func (s *flatStub) NumEdges() uint64    { return s.m }
func (s *flatStub) Degree(u uint32) int { return int(s.degs[u]) }
func (s *flatStub) Degrees() []int32    { return s.degs }
func (s *flatStub) ForEachNeighbor(u uint32, f func(v uint32) bool) {
	for _, v := range s.adj[u] {
		if !f(v) {
			return
		}
	}
}

// baseOnly strips the FlatGraph capability from a stub so EdgeMap takes the
// estimated-granularity path over the same graph.
type baseOnly struct{ s *flatStub }

func (b baseOnly) Order() int          { return b.s.Order() }
func (b baseOnly) NumEdges() uint64    { return b.s.NumEdges() }
func (b baseOnly) Degree(u uint32) int { return b.s.Degree(u) }
func (b baseOnly) ForEachNeighbor(u uint32, f func(v uint32) bool) {
	b.s.ForEachNeighbor(u, f)
}

// star returns a hub-and-leaves adjacency plus a chain, a skewed shape that
// makes equal-count frontier blocks maximally unbalanced.
func star(n int) [][]uint32 {
	adj := make([][]uint32, n)
	for i := 1; i < n; i++ {
		adj[0] = append(adj[0], uint32(i))
		adj[i] = append(adj[i], 0)
		if i+1 < n {
			adj[i] = append(adj[i], uint32(i+1))
			adj[i+1] = append(adj[i+1], uint32(i))
		}
	}
	return adj
}

// TestFrontierBlocksInvariants: boundaries must be monotone, cover the
// frontier exactly, and place the hub in its own ballpark — with or without
// a flat degree array, since the work sums come from Degree either way.
func TestFrontierBlocksInvariants(t *testing.T) {
	s := newFlatStub(star(500))
	src := make([]uint32, s.Order())
	for i := range src {
		src[i] = uint32(i)
	}
	for _, degs := range [][]int32{nil, s.degs} {
		var work []uint64
		total := frontierWork(s, degs, src, &work)
		if want := uint64(len(src)) + s.NumEdges(); total != want {
			t.Fatalf("frontier work %d, want |U| + deg(U) = %d", total, want)
		}
		for _, maxBlocks := range []int{1, 3, 8, 64, 1000} {
			bounds := frontierBlocks(work, total, maxBlocks)
			if bounds[0] != 0 || bounds[len(bounds)-1] != len(src) {
				t.Fatalf("bounds do not cover the frontier: %v", bounds[:min(len(bounds), 8)])
			}
			for i := 1; i < len(bounds); i++ {
				if bounds[i] < bounds[i-1] {
					t.Fatalf("non-monotone bounds at %d", i)
				}
			}
		}
		// Exact work split: with the hub at index 0 carrying half the
		// edges, a work-based split must cut the rest into thin slices,
		// i.e. the first boundary lands right after the hub rather than at
		// len/blocks.
		if bounds := frontierBlocks(work, total, 8); bounds[1] > len(src)/8 {
			t.Fatalf("work-based split ignored the hub: first boundary %d", bounds[1])
		}
	}
}

// TestSparseHubLast: a frontier whose last vertex carries most of the work
// pushes block boundaries to len(src); the trailing empty blocks must not
// index past the work sums, and every claim must survive the close-up of
// the shared output array.
func TestSparseHubLast(t *testing.T) {
	s := newFlatStub(star(400))
	src := []uint32{5, 9, 13, 0} // the hub last
	old := parallel.Procs
	parallel.Procs = 4
	defer func() { parallel.Procs = old }()
	for _, g := range []Graph{s, baseOnly{s}} {
		got := EdgeMap(g, FromSparse(s.Order(), src),
			func(src, dst uint32) bool { return src == 0 },
			func(v uint32) bool { return true },
			EdgeMapOpts{NoDense: true}).Sparse()
		if len(got) != s.Degree(0) {
			t.Fatalf("%T: hub claimed %d targets, want %d", g, len(got), s.Degree(0))
		}
		seen := map[uint32]bool{}
		for _, v := range got {
			if v == 0 || seen[v] {
				t.Fatalf("%T: bad or duplicate target %d", g, v)
			}
			seen[v] = true
		}
	}
}

// TestEdgeMapFlatMatchesBase: routing through the degree array must not
// change EdgeMap results in either direction.
func TestEdgeMapFlatMatchesBase(t *testing.T) {
	s := newFlatStub(star(300))
	frontier := FromSparse(s.Order(), []uint32{0, 5, 17, 120})
	visit := func(src, dst uint32) bool { return true }
	cond := func(v uint32) bool { return v%3 != 1 }
	for _, opts := range []EdgeMapOpts{{}, {NoDense: true}, {DenseThresholdDiv: 1}} {
		a := EdgeMap(s, frontier, visit, cond, opts).Sparse()
		b := EdgeMap(baseOnly{s}, frontier, visit, cond, opts).Sparse()
		am := map[uint32]int{}
		bm := map[uint32]int{}
		for _, v := range a {
			am[v]++
		}
		for _, v := range b {
			bm[v]++
		}
		if len(am) != len(bm) {
			t.Fatalf("opts=%+v: flat and base disagree (%d vs %d targets)", opts, len(am), len(bm))
		}
		for v := range am {
			if _, ok := bm[v]; !ok {
				t.Fatalf("opts=%+v: flat-only target %d", opts, v)
			}
		}
	}
}
