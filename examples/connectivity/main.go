// Connectivity: incremental graph analytics over snapshots — track how the
// connected-component structure and local clusters of an evolving network
// change as edges stream in, using one immutable version per analysis round.
package main

import (
	"fmt"

	"repro/internal/algos"
	"repro/internal/aspen"
	"repro/internal/ctree"
	"repro/internal/rmat"
)

func countComponents(labels []uint32, g aspen.Graph) int {
	seen := map[uint32]bool{}
	for u := 0; u < g.Order(); u++ {
		if g.HasVertex(uint32(u)) {
			seen[labels[u]] = true
		}
	}
	return len(seen)
}

func main() {
	gen := rmat.NewGenerator(12, 7)
	vg := aspen.NewVersioned(aspen.NewGraph(ctree.DefaultParams()))

	// Stream edges in rounds; after each round analyze a snapshot. Because
	// versions are persistent, all rounds could equally be analyzed at the
	// end, or concurrently.
	const rounds = 5
	const perRound = 20_000
	for round := 1; round <= rounds; round++ {
		lo := uint64((round - 1) * perRound)
		batch := aspen.MakeUndirected(gen.Edges(lo, lo+perRound))
		vg.Update(func(g aspen.Graph) aspen.Graph { return g.InsertEdges(batch) })

		v := vg.Acquire()
		g := v.Graph
		fs := aspen.BuildFlatSnapshot(g)
		labels := algos.ConnectedComponents(fs)
		comps := countComponents(labels, g)
		fmt.Printf("round %d: %7d edges, %5d vertices, %4d components",
			round, g.NumEdges(), g.NumVertices(), comps)

		// Local clustering around the highest-degree vertex.
		hub := uint32(0)
		for u := 0; u < g.Order(); u++ {
			if g.Degree(uint32(u)) > g.Degree(hub) {
				hub = uint32(u)
			}
		}
		lc := algos.LocalCluster(g, hub, 1e-6, 10)
		fmt.Printf(" | hub %d: cluster size %d, conductance %.3f\n",
			hub, len(lc.Cluster), lc.Conductance)
		vg.Release(v)
	}

	// Demonstrate deletion: removing the hub splits its neighborhood.
	v := vg.Acquire()
	g := v.Graph
	hub := uint32(0)
	for u := 0; u < g.Order(); u++ {
		if g.Degree(uint32(u)) > g.Degree(hub) {
			hub = uint32(u)
		}
	}
	before := countComponents(algos.ConnectedComponents(aspen.BuildFlatSnapshot(g)), g)
	g2 := g.DeleteVertices([]uint32{hub})
	after := countComponents(algos.ConnectedComponents(aspen.BuildFlatSnapshot(g2)), g2)
	fmt.Printf("deleting hub %d: components %d -> %d\n", hub, before, after)
	vg.Release(v)
}
