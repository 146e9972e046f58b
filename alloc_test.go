package repro

import (
	"runtime"
	"testing"

	"repro/internal/aspen"
	"repro/internal/ctree"
	"repro/internal/parallel"
)

// perOpAt reports op's mean allocations over runs calls, with the runtime
// and the parallel primitives both at procs workers (0 leaves both as they
// are). Several runs follow one uncounted warm-up call; a single run is
// measured cold, as only ops that allocate too much for a refilled pool to
// show are.
func perOpAt(procs, runs int, op func()) float64 {
	if procs > 0 {
		defer func(g, p int) { runtime.GOMAXPROCS(g); parallel.Procs = p }(runtime.GOMAXPROCS(procs), parallel.Procs)
		parallel.Procs = procs
	}
	if runs > 1 {
		op()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		op()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// TestAllocGates holds each gated benchmark's op at no more than its
// pinned allocs/op × 1.15. A row whose count depends on the parallel forks
// is measured at the GOMAXPROCS it was pinned at: EdgeMap, Bellman-Ford
// and the FlatKernels bfs/cc rows allocate per parallel block and were
// pinned at 4. The other rows read the same at 1, 2 and 4 workers and are
// measured at 1, except ApplyRuns/one-pass, which runs at the machine's
// width to keep its 1.7 M-allocation op quick. Re-pinning a gate edits its
// number here with a BENCHMARKS.md line saying why.
func TestAllocGates(t *testing.T) {
	applyRuns := make(chan applyRunsFixture) // built beside the others; nothing is measured until it arrives
	go func() { applyRuns <- newApplyRunsFixture() }()
	g := benchGraph(t, ctree.DefaultParams())
	all := benchWeightedBatch()
	wg := aspen.NewWeightedGraphWith(ctree.DefaultParams()).InsertEdges(all)
	kernels := map[string]func(){}
	for _, k := range flatKernels(g, aspen.BuildFlatSnapshot(g), aspen.BuildFlatSnapshot(agedBenchGraph(t, g)), wg, nil) {
		kernels[k.name] = k.run
	}
	bellmanFord, dijkstra := ssspOps(wg)
	ar := <-applyRuns
	for _, c := range []struct {
		name        string
		procs, runs int
		op          func()
		allocs      float64
	}{
		{"BenchmarkApplyRuns/one-pass", 0, 1, ar.op(aspen.Graph.ApplyRuns), 2_446_826},
		{"BenchmarkEdgeMap", 4, 10, edgeMapOp(g), 40},
		{"BenchmarkInsertEdges/batch=100", 1, 5, batchInsertOp(g, 21, 100), 846},
		{"BenchmarkInsertEdges/batch=10000", 1, 3, batchInsertOp(g, 21, 10_000), 25_019},
		{"BenchmarkInsertEdges/batch=1000000", 1, 1, batchInsertOp(g, 21, 1_000_000), 93_082},
		{"BenchmarkTable08BatchInsert/batch=10", 1, 5, batchInsertOp(g, 5, 10), 138},
		{"BenchmarkTable08BatchInsert/batch=1000", 1, 3, batchInsertOp(g, 5, 1_000), 5_039},
		{"BenchmarkTable08BatchInsert/batch=100000", 1, 1, batchInsertOp(g, 5, 100_000), 59_804},
		{"BenchmarkWeightedInsertEdges/batch=100", 1, 5, weightedInsertOp(wg, all, 100), 64},
		{"BenchmarkWeightedInsertEdges/batch=10000", 1, 3, weightedInsertOp(wg, all, 10_000), 1_323},
		{"BenchmarkWeightedIngestEmpty/Plain", 1, 1, weightedIngestEmptyOp(ctree.PlainParams(), all), 306_735},
		{"BenchmarkSSSP/BellmanFordEdgeMap", 4, 3, bellmanFord, 312},
		{"BenchmarkSSSP/DijkstraRef", 1, 1, dijkstra, 87_751},
		{"BenchmarkFlatKernels/bfs-tree", 4, 3, kernels["bfs-tree"], 203},
		{"BenchmarkFlatKernels/bfs-flat", 4, 3, kernels["bfs-flat"], 199},
		{"BenchmarkFlatKernels/bfs-flat-aged", 4, 3, kernels["bfs-flat-aged"], 200},
		{"BenchmarkFlatKernels/cc-tree", 4, 3, kernels["cc-tree"], 111},
		{"BenchmarkFlatKernels/cc-flat", 4, 3, kernels["cc-flat"], 113},
		{"BenchmarkFlatKernels/cc-flat-aged", 4, 3, kernels["cc-flat-aged"], 78},
	} {
		n := perOpAt(c.procs, c.runs, c.op)
		t.Logf("%s: %.0f allocs/op (gate %.0f × 1.15)", c.name, n, c.allocs)
		if n > c.allocs*1.15 {
			t.Errorf("%s: %.0f allocs/op, gate %.0f × 1.15", c.name, n, c.allocs)
		}
	}
}
