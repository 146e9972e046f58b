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
// workers; BenchmarkFlatKernels records the flat-vs-tree gap CI and
// BENCHMARKS.md track (the acceptance target is flat ≥ 15% faster on BFS,
// CC and SSSP over the rMAT benchmark graphs).

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
func agedBenchGraph(b *testing.B, g aspen.Graph) aspen.Graph {
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

// BenchmarkFlatKernels runs each global kernel against the tree snapshot
// and the flat view of the same rMAT graph, and BFS and CC also against the
// flat view of that graph after 200 update batches (the -aged rows). The BFS
// and CC rows report allocs/op and CI gates them (BENCH_pr4_flat.json): both
// kernels allocate per parallel block, a few hundred objects here, and a
// closure per vertex coming back would read ≥ 16 384.
func BenchmarkFlatKernels(b *testing.B) {
	g := benchGraph(b, ctree.DefaultParams())
	fs := aspen.BuildFlatSnapshot(g)
	fa := aspen.BuildFlatSnapshot(agedBenchGraph(b, g))
	wg := benchWeightedGraph(ctree.DefaultParams())
	fw := aspen.BuildFlatWeightedSnapshot(wg)

	for _, k := range []struct {
		name   string
		allocs bool
		run    func()
	}{
		{"bfs-tree", true, func() { algos.BFS(g, 0, false) }},
		{"bfs-flat", true, func() { algos.BFS(fs, 0, false) }},
		{"bfs-flat-aged", true, func() { algos.BFS(fa, 0, false) }},
		{"cc-tree", true, func() { algos.ConnectedComponents(g) }},
		{"cc-flat", true, func() { algos.ConnectedComponents(fs) }},
		{"cc-flat-aged", true, func() { algos.ConnectedComponents(fa) }},
		{"sssp-tree", false, func() { algos.SSSP(wg, 0) }},
		{"sssp-flat", false, func() { algos.SSSP(fw, 0) }},
	} {
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
