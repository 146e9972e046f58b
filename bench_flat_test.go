package repro

import (
	"fmt"
	"testing"

	"repro/internal/algos"
	"repro/internal/aspen"
	"repro/internal/ctree"
	"repro/internal/parallel"
	"repro/internal/rmat"
)

// PR-4 benchmarks: the §5.1 flat view as the default fast path for global
// kernels. BenchmarkFlatBuild shows the parallel build scaling with
// workers; BenchmarkFlatKernels records the flat-vs-tree gap BENCHMARKS.md
// tracks (the acceptance target is flat ≥ 15% faster on BFS, CC and SSSP
// over the rMAT benchmark graphs).

// BenchmarkFlatBuild sweeps the worker count of the per-worker-range
// parallel flat-snapshot build.
func BenchmarkFlatBuild(b *testing.B) {
	g := benchGraph(b, ctree.DefaultParams())
	sweep := []int{1}
	for _, p := range []int{2, 4, parallel.Procs} {
		if p <= parallel.Procs && p > sweep[len(sweep)-1] {
			sweep = append(sweep, p)
		}
	}
	for _, procs := range sweep {
		b.Run(fmt.Sprintf("workers=%d", procs), func(b *testing.B) {
			old := parallel.Procs
			parallel.Procs = procs
			defer func() { parallel.Procs = old }()
			// No ReportAllocs: the parallel build's allocation count scales
			// with the worker goroutines, which would make an allocs gate
			// machine-dependent. Wall time is the metric here.
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				aspen.BuildFlatSnapshot(g)
			}
		})
	}
}

// BenchmarkFlatWeightedBuild is the weighted analogue of BenchmarkFlatBuild
// at full parallelism.
func BenchmarkFlatWeightedBuild(b *testing.B) {
	g := benchWeightedGraph(ctree.DefaultParams())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		aspen.BuildFlatWeightedSnapshot(g)
	}
}

// agedBenchGraph streams into g without changing its edge set: the rMAT
// stream that generated it is replayed in 100 slices, each deleted and then
// inserted again — 200 update batches, after which every adjacency chunk
// sits where the allocator had room when its vertex was last rewritten
// instead of in the vertex order of a one-call build. That is the only kind
// of graph a streaming system serves, and the one on which the flat view's
// Warm capability does anything (DESIGN.md "Read path on an aged graph").
func agedBenchGraph(b testing.TB, g aspen.Graph) aspen.Graph {
	b.Helper()
	const parts = 100
	gen, m := rmat.NewGenerator(benchScale, 1), g.NumEdges()
	for i := uint64(0); i < parts; i++ {
		var es []aspen.Edge
		for _, e := range gen.Edges(i*benchEdges/parts, (i+1)*benchEdges/parts) {
			if e.Src != e.Dst {
				es = append(es, e)
			}
		}
		es = aspen.MakeUndirected(es)
		g = g.DeleteEdges(es).InsertEdges(es)
	}
	if g.NumEdges() != m {
		b.Fatalf("aging changed the edge count: %d -> %d", m, g.NumEdges())
	}
	return g
}

// flatKernel is one row of BenchmarkFlatKernels: a global kernel against
// the tree snapshot or the flat view of the rMAT bench graph. The BFS and
// CC rows report allocs/op and TestAllocGates holds them: both kernels
// allocate per parallel block, a few hundred objects here, and a closure
// per vertex coming back would read ≥ 16 384.
type flatKernel struct {
	name   string
	allocs bool
	run    func()
}

// flatKernels runs BFS and CC against g, its flat view fs, and fa, the flat
// view of g after 200 update batches (the -aged rows); SSSP runs when wg
// and fw, the weighted graph and its flat view, are given.
func flatKernels(g aspen.Graph, fs, fa *aspen.FlatSnapshot, wg aspen.WeightedGraph, fw *aspen.FlatWeightedSnapshot) []flatKernel {
	ks := []flatKernel{
		{"bfs-tree", true, func() { algos.BFS(g, 0, false) }},
		{"bfs-flat", true, func() { algos.BFS(fs, 0, false) }},
		{"bfs-flat-aged", true, func() { algos.BFS(fa, 0, false) }},
		{"cc-tree", true, func() { algos.ConnectedComponents(g) }},
		{"cc-flat", true, func() { algos.ConnectedComponents(fs) }},
		{"cc-flat-aged", true, func() { algos.ConnectedComponents(fa) }},
	}
	if fw != nil {
		ks = append(ks,
			flatKernel{"sssp-tree", false, func() { algos.SSSP(wg, 0) }},
			flatKernel{"sssp-flat", false, func() { algos.SSSP(fw, 0) }})
	}
	return ks
}

// BenchmarkFlatKernels runs each of flatKernels' rows.
func BenchmarkFlatKernels(b *testing.B) {
	g := benchGraph(b, ctree.DefaultParams())
	fs := aspen.BuildFlatSnapshot(g)
	fa := aspen.BuildFlatSnapshot(agedBenchGraph(b, g))
	wg := benchWeightedGraph(ctree.DefaultParams())
	fw := aspen.BuildFlatWeightedSnapshot(wg)
	for _, k := range flatKernels(g, fs, fa, wg, fw) {
		b.Run(k.name, func(b *testing.B) {
			if k.allocs {
				b.ReportAllocs()
			}
			for i := 0; i < b.N; i++ {
				k.run()
			}
		})
	}
}
