package repro

import (
	"fmt"
	"testing"

	"repro/internal/algos"
	"repro/internal/aspen"
	"repro/internal/ctree"
	"repro/internal/xhash"
)

// Weighted-workload benchmarks for the generic-payload C-tree stack:
// batch ingest throughput, memory footprint per weighted edge, and SSSP
// over compressed weighted snapshots.

// benchWeightedBatch returns the symmetrized weighted edge batch of the
// shared rMAT benchmark graph.
func benchWeightedBatch() []aspen.WeightedEdge {
	adj := benchAdjacency()
	var batch []aspen.WeightedEdge
	for u, nbrs := range adj {
		for _, v := range nbrs {
			w := 0.5 + float32(xhash.Mix32(uint32(u)^v*0x9e3779b9)%1000)/100
			batch = append(batch, aspen.WeightedEdge{Src: uint32(u), Dst: v, Val: w})
		}
	}
	return batch
}

func benchWeightedGraph(p ctree.Params) aspen.WeightedGraph {
	return aspen.NewWeightedGraphWith(p).InsertEdges(benchWeightedBatch())
}

// weightedInsertOp overwrites the weights of the first size edges of the
// weighted bench batch in base, a new version each call: the op of
// BenchmarkWeightedInsertEdges and its allocation gate (the weighted
// analogue of BenchmarkInsertEdges).
func weightedInsertOp(base aspen.WeightedGraph, all []aspen.WeightedEdge, size int) func() {
	// Shift weights so every update is a real overwrite.
	shifted := make([]aspen.WeightedEdge, size)
	for i, e := range all[:size] {
		shifted[i] = aspen.WeightedEdge{Src: e.Src, Dst: e.Dst, Val: e.Val + 1}
	}
	return func() { base.InsertEdges(shifted) }
}

// BenchmarkWeightedInsertEdges measures weighted batch ingest into a
// populated compressed graph at several batch sizes.
func BenchmarkWeightedInsertEdges(b *testing.B) {
	base := benchWeightedGraph(ctree.DefaultParams())
	all := benchWeightedBatch()
	for _, size := range []int{100, 10_000} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			benchEdgesPerSec(b, weightedInsertOp(base, all, size), size)
		})
	}
}

// weightedIngestEmptyOp builds a weighted graph of params p from scratch
// in one batch: the op of BenchmarkWeightedIngestEmpty and its allocation
// gate.
func weightedIngestEmptyOp(p ctree.Params, batch []aspen.WeightedEdge) func() {
	return func() { aspen.NewWeightedGraphWith(p).InsertEdges(batch) }
}

// BenchmarkWeightedIngestEmpty measures weightedIngestEmptyOp, compressed
// versus plain trees.
func BenchmarkWeightedIngestEmpty(b *testing.B) {
	batch := benchWeightedBatch()
	for _, f := range []struct {
		name string
		p    ctree.Params
	}{
		{"DE", ctree.DefaultParams()},
		{"Plain", ctree.PlainParams()},
	} {
		b.Run(f.name, func(b *testing.B) {
			benchEdgesPerSec(b, weightedIngestEmptyOp(f.p, batch), len(batch))
		})
	}
}

// BenchmarkWeightedMemory reports weighted chunk bytes per edge for the
// compressed formats (the weighted column missing from Table 2; the plain
// format stores weights in tree nodes and reports 0 chunk bytes).
func BenchmarkWeightedMemory(b *testing.B) {
	batch := benchWeightedBatch()
	for _, f := range []struct {
		name string
		p    ctree.Params
	}{
		{"DE", ctree.DefaultParams()},
		{"NoDE", ctree.Params{B: ctree.DefaultB, Codec: 1}},
	} {
		b.Run(f.name, func(b *testing.B) {
			var g aspen.WeightedGraph
			for i := 0; i < b.N; i++ {
				g = aspen.NewWeightedGraphWith(f.p).InsertEdges(batch)
			}
			s := g.Stats()
			b.ReportMetric(float64(s.Edge.ChunkBytes)/float64(g.NumEdges()), "chunkB/edge")
		})
	}
}

// ssspOps are the rows of BenchmarkSSSP and their allocation gates:
// Bellman-Ford over the weighted EdgeMap on a compressed weighted
// snapshot, and the sequential Dijkstra as the reference row.
func ssspOps(g aspen.WeightedGraph) (bellmanFord, dijkstra func()) {
	return func() { algos.SSSP(g, 0) }, func() { algos.DijkstraRef(g, 0) }
}

func BenchmarkSSSP(b *testing.B) {
	bellmanFord, dijkstra := ssspOps(benchWeightedGraph(ctree.DefaultParams()))
	b.Run("BellmanFordEdgeMap", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bellmanFord()
		}
	})
	b.Run("DijkstraRef", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dijkstra()
		}
	})
}
