package aspen_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/aspen"
	"repro/internal/ctree"
	"repro/internal/parallel"
	"repro/internal/rmat"
)

// patchBenchGraph builds the rMAT bench graph (scale 20, 2M directed
// edges after symmetrization — small enough to set up in seconds, big
// enough that the O(n) rebuild dwarfs an O(batch) patch) and a prebuilt
// flat view of it; patchBenchNext is its successor version one batch
// ahead.
func patchBenchGraph() (aspen.Graph, *aspen.FlatSnapshot) {
	gen := rmat.NewGenerator(20, 99)
	g := aspen.NewGraph(ctree.DefaultParams()).InsertEdges(aspen.MakeUndirected(gen.Edges(0, 1_000_000)))
	return g, aspen.BuildFlatSnapshot(g)
}

func patchBenchNext(g aspen.Graph, batch uint64) aspen.Graph {
	gen := rmat.NewGenerator(20, 99)
	return g.InsertEdges(aspen.MakeUndirected(gen.Edges(1_000_000, 1_000_000+batch)))
}

// flatRebuildOp is the O(n) baseline: materialize the successor version's
// flat view from scratch, the pre-patch cost of every commit under
// PrebuildFlat.
func flatRebuildOp(next aspen.Graph) func() {
	return func() { aspen.BuildFlatSnapshot(next) }
}

// flatPatchOp is the incremental path: derive the successor view from the
// previous one via the version diff — the table and degree memmoves plus
// O(batch) page re-pointing, no page copied.
func flatPatchOp(fs *aspen.FlatSnapshot, next aspen.Graph) func() {
	return func() { aspen.PatchFlatSnapshot(fs, next) }
}

// diffVersionsOp isolates the tree-diff walk the patch rides on:
// O(d log(n/d + 1)) on EqualRep-sharing versions.
func diffVersionsOp(base, next aspen.Graph) func() {
	return func() {
		aspen.DiffVersions(base, next, func(aspen.VertexDelta[struct{}]) bool { return true })
	}
}

func benchOp(b *testing.B, op func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// BenchmarkFlatRebuild and BenchmarkFlatPatch compare the two ways to the
// successor's view; the patch is ≥ 5× faster at batch=1k.
func BenchmarkFlatRebuild(b *testing.B) {
	g, _ := patchBenchGraph()
	for _, batch := range []uint64{1_000, 10_000} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			benchOp(b, flatRebuildOp(patchBenchNext(g, batch)))
		})
	}
}

func BenchmarkFlatPatch(b *testing.B) {
	g, fs := patchBenchGraph()
	for _, batch := range []uint64{1_000, 10_000} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			benchOp(b, flatPatchOp(fs, patchBenchNext(g, batch)))
		})
	}
}

func BenchmarkDiffVersions(b *testing.B) {
	g, _ := patchBenchGraph()
	benchOp(b, diffVersionsOp(g, patchBenchNext(g, 1_000)))
}

// perOpAt reports op's mean allocations and bytes over runs calls after
// one warm-up call, with the runtime and the parallel primitives both at
// procs workers: the parallel flat build allocates per worker.
func perOpAt(procs, runs int, op func()) (allocs, bytes float64) {
	defer func(g, p int) { runtime.GOMAXPROCS(g); parallel.Procs = p }(runtime.GOMAXPROCS(procs), parallel.Procs)
	parallel.Procs = procs
	op()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		op()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestAllocGates holds each gated benchmark's op at no more than its
// pinned allocs/op and B/op × 1.15 (a pinned 0 stays 0), at GOMAXPROCS=1
// where the rows were pinned. A flat build or patch allocates its view,
// page table and degree array (3 allocs, 4 718 672 B at 1 M ids), so
// copying pages again fails here. Re-pinning a gate edits its number here
// with a BENCHMARKS.md line saying why.
func TestAllocGates(t *testing.T) {
	g, fs := patchBenchGraph()
	next := map[uint64]aspen.Graph{1_000: patchBenchNext(g, 1_000), 10_000: patchBenchNext(g, 10_000)}
	for _, c := range []struct {
		name          string
		op            func() func()
		allocs, bytes float64
	}{
		{"BenchmarkDiffVersions", func() func() { return diffVersionsOp(g, next[1_000]) }, 0, 0},
		{"BenchmarkFlatPatch/batch=1000", func() func() { return flatPatchOp(fs, next[1_000]) }, 3, 4_718_672},
		{"BenchmarkFlatPatch/batch=10000", func() func() { return flatPatchOp(fs, next[10_000]) }, 3, 4_718_672},
		{"BenchmarkFlatRebuild/batch=1000", func() func() { return flatRebuildOp(next[1_000]) }, 3, 4_718_672},
		{"BenchmarkFlatRebuild/batch=10000", func() func() { return flatRebuildOp(next[10_000]) }, 3, 4_718_672},
	} {
		allocs, bytes := perOpAt(1, 3, c.op())
		if allocs > c.allocs*1.15 || bytes > c.bytes*1.15 {
			t.Errorf("%s: %.0f allocs, %.0f B per op, gate %.0f allocs, %.0f B × 1.15", c.name, allocs, bytes, c.allocs, c.bytes)
		}
	}
}
