package repro

import (
	"fmt"
	"testing"

	"repro/internal/algos"
	"repro/internal/aspen"
	"repro/internal/ctree"
	"repro/internal/parallel"
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

// BenchmarkFlatKernels runs each global kernel against the tree snapshot
// and the flat view of the same rMAT graph. The BFS and CC rows report
// allocs/op and CI gates them (BENCH_pr4_flat.json): both kernels allocate
// per parallel block, a few hundred objects here, and a closure per vertex
// coming back would read ≥ 16 384.
func BenchmarkFlatKernels(b *testing.B) {
	g := benchGraph(b, ctree.DefaultParams())
	fs := aspen.BuildFlatSnapshot(g)
	wg := benchWeightedGraph(ctree.DefaultParams())
	fw := aspen.BuildFlatWeightedSnapshot(wg)

	for _, k := range []struct {
		name   string
		allocs bool
		run    func()
	}{
		{"bfs-tree", true, func() { algos.BFS(g, 0, false) }},
		{"bfs-flat", true, func() { algos.BFS(fs, 0, false) }},
		{"cc-tree", true, func() { algos.ConnectedComponents(g) }},
		{"cc-flat", true, func() { algos.ConnectedComponents(fs) }},
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
