// Quickstart: build a small graph, update it functionally, take a snapshot,
// and run BFS — the minimal tour of the Aspen public API.
package main

import (
	"fmt"

	"repro/internal/algos"
	"repro/internal/aspen"
	"repro/internal/ctree"
)

func main() {
	// An Aspen graph is a value: every update returns a new immutable
	// snapshot sharing structure with the old one.
	g := aspen.NewGraph(ctree.DefaultParams())
	g = g.InsertEdges(aspen.MakeUndirected([]aspen.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 3, Dst: 0},
		{Src: 2, Dst: 4},
	}))
	fmt.Printf("graph: %d vertices, %d directed edges\n", g.NumVertices(), g.NumEdges())

	// The versioned graph coordinates a writer with concurrent readers.
	vg := aspen.NewVersioned(g)
	vg.Update(func(g aspen.Graph) aspen.Graph {
		return g.InsertEdges(aspen.MakeUndirected([]aspen.Edge{{Src: 4, Dst: 5}}))
	})

	// Readers acquire a snapshot; updates never disturb it.
	v := vg.Acquire()
	defer vg.Release(v)

	// Global algorithms use a flat snapshot for O(1) vertex access.
	fs := aspen.BuildFlatSnapshot(v.Graph)
	res := algos.BFS(fs, 0, false)
	fmt.Printf("BFS from 0 reached %d vertices in %d rounds\n", res.Visited, res.Rounds)
	dist := res.Distances()
	for _, u := range []uint32{1, 4, 5} {
		fmt.Printf("  dist(0, %d) = %d\n", u, dist[u])
	}

	// Deletions are functional too.
	g2 := v.Graph.DeleteEdges(aspen.MakeUndirected([]aspen.Edge{{Src: 2, Dst: 4}}))
	fmt.Printf("after deleting {2,4}: %d edges (snapshot still has %d)\n",
		g2.NumEdges(), v.Graph.NumEdges())
}
