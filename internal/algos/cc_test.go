package algos_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/algos"
	"repro/internal/aspen"
	"repro/internal/csr"
	"repro/internal/ctree"
	"repro/internal/ligra"
	"repro/internal/parallel"
	"repro/internal/rmat"
	"repro/internal/shard"
	"repro/internal/stream"
	"repro/internal/xhash"
)

// labelMinCC is the kernel ConnectedComponents used to be — label
// propagation to the component minimum — run sequentially as the reference
// the union-find kernel is checked against.
func labelMinCC(g ligra.Graph) []uint32 {
	labels := make([]uint32, g.Order())
	for i := range labels {
		labels[i] = uint32(i)
	}
	for changed := true; changed; {
		changed = false
		for v := range labels {
			m := labels[v]
			g.ForEachNeighbor(uint32(v), func(u uint32) bool {
				m = min(m, labels[u])
				return true
			})
			if m < labels[v] {
				labels[v], changed = m, true
			}
		}
	}
	return labels
}

// ccShapes are the inputs that stress one part of the kernel each.
func ccShapes() map[string][]aspen.Edge {
	e := func(u, v uint32) aspen.Edge { return aspen.Edge{Src: u, Dst: v} }
	shapes := map[string][]aspen.Edge{
		"empty": nil,
		// Most ids carry no vertex and must label themselves.
		"isolated-ids": {e(3, 7), e(7, 12), e(40, 41), e(900, 5)},
	}
	// A path whose ids are scrambled along it: hooks chain deep before any
	// find flattens them.
	const pathLen = 3000
	perm := make([]uint32, pathLen)
	for i := range perm {
		perm[i] = uint32(i)
	}
	rng := xhash.NewRNG(7)
	for i := len(perm) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	var path []aspen.Edge
	for i := 1; i < pathLen; i++ {
		path = append(path, e(perm[i-1], perm[i]))
	}
	shapes["path"] = path
	// A star on the largest id: every leaf's only link is to a root that
	// keeps being re-hooked.
	var star []aspen.Edge
	for i := uint32(0); i < 4000; i++ {
		star = append(star, e(4000, i))
	}
	shapes["star"] = star
	// Two equal giants interleaved on even and odd ids: the sample has no
	// majority, so whichever root wins, half the graph is "outside".
	var twins []aspen.Edge
	for i := uint32(0); i < 6000; i++ {
		a, b := uint32(rng.Intn(3000)), uint32(rng.Intn(3000))
		twins = append(twins, e(2*a, 2*b), e(2*a+1, 2*b+1))
	}
	shapes["two-giants"] = twins
	// Thousands of triangles: the sampled root is wrong for almost everyone.
	var tiny []aspen.Edge
	for i := uint32(0); i < 3000; i++ {
		tiny = append(tiny, e(3*i, 3*i+1), e(3*i+1, 3*i+2), e(3*i+2, 3*i))
	}
	shapes["tiny-components"] = tiny
	shapes["rmat"] = rmat.NewGenerator(12, 5).Edges(0, 30_000)
	return shapes
}

// ccViews returns the same edge set as a tree snapshot, a flat snapshot, a
// CSR graph and the tree and stitched-flat views of a 3-shard cluster.
func ccViews(t *testing.T, edges []aspen.Edge) map[string]ligra.Graph {
	t.Helper()
	var clean []aspen.Edge
	for _, e := range edges {
		if e.Src != e.Dst {
			clean = append(clean, e)
		}
	}
	sym := aspen.MakeUndirected(clean)
	g := aspen.NewGraph(ctree.DefaultParams()).InsertEdges(sym)
	adj := make([][]uint32, g.Order())
	for u := range adj {
		g.ForEachNeighbor(uint32(u), func(v uint32) bool {
			adj[u] = append(adj[u], v)
			return true
		})
	}
	c := shard.NewGraphClusterFrom(shard.NewRangePartitioner(3, uint32(g.Order())), ctree.DefaultParams(), sym, stream.Options{})
	tx := c.Begin()
	t.Cleanup(func() { tx.Close(); c.Close() })
	return map[string]ligra.Graph{
		"tree":          g,
		"flat":          aspen.BuildFlatSnapshot(g),
		"csr":           csr.FromAdjacency(adj),
		"shards-tree":   tx.Ligra(),
		"shards-stitch": tx.Flat(),
	}
}

// TestConnectedComponentsDifferential: on every shape over every view, at
// one worker and at eight, twenty times over, the labels equal the
// sequential label-min reference — so they are the component minima and do
// not depend on the schedule — and equal what IncrementalCC maintains.
func TestConnectedComponentsDifferential(t *testing.T) {
	old := parallel.Procs
	defer func() { parallel.Procs = old }()
	for name, edges := range ccShapes() {
		t.Run(name, func(t *testing.T) {
			views := ccViews(t, edges)
			want := labelMinCC(views["tree"])
			if inc := algos.NewIncrementalCC(views["tree"]).Labels(len(want)); !slices.Equal(inc, want) {
				t.Fatal("IncrementalCC.Labels disagrees with the reference")
			}
			for vname, v := range views {
				for _, procs := range []int{1, 8} {
					parallel.Procs = procs
					for rep := 0; rep < 20; rep++ {
						if got := algos.ConnectedComponents(v); !slices.Equal(got, want) {
							t.Fatalf("%s, %d workers, run %d: %s", vname, procs, rep, firstDiff(got, want))
						}
					}
				}
			}
		})
	}
}

func firstDiff(got, want []uint32) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d labels, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Sprintf("label[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	return "equal"
}
