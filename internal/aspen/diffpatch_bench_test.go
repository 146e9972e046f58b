package aspen_test

import (
	"fmt"
	"testing"

	"repro/internal/aspen"
	"repro/internal/ctree"
	"repro/internal/rmat"
)

// patchBenchSetup builds the rMAT bench graph (scale 20, 2M directed edges
// after symmetrization — small enough to set up in seconds, big enough that
// the O(n) rebuild dwarfs an O(batch) patch), a prebuilt flat view of it,
// and a successor version one batch ahead.
func patchBenchSetup(b *testing.B, batch uint64) (aspen.Graph, *aspen.FlatSnapshot, aspen.Graph) {
	b.Helper()
	gen := rmat.NewGenerator(20, 99)
	g := aspen.NewGraph(ctree.DefaultParams()).InsertEdges(aspen.MakeUndirected(gen.Edges(0, 1_000_000)))
	fs := aspen.BuildFlatSnapshot(g)
	g2 := g.InsertEdges(aspen.MakeUndirected(gen.Edges(1_000_000, 1_000_000+batch)))
	return g, fs, g2
}

// BenchmarkFlatRebuild is the O(n) baseline: materialize the successor
// version's flat view from scratch, the pre-PR cost of every commit under
// PrebuildFlat.
func BenchmarkFlatRebuild(b *testing.B) {
	for _, batch := range []uint64{1_000, 10_000} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			_, _, g2 := patchBenchSetup(b, batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				aspen.BuildFlatSnapshot(g2)
			}
		})
	}
}

// BenchmarkFlatPatch is the incremental path: derive the successor view
// from the previous one via the version diff — the table and degree
// memmoves plus O(batch) page re-pointing, no page copied.
// The acceptance bar for this PR is ≥5× over BenchmarkFlatRebuild at
// batch=1k (gated in CI via benchdiff allocs, checked here by inspection).
func BenchmarkFlatPatch(b *testing.B) {
	for _, batch := range []uint64{1_000, 10_000} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			_, fs, g2 := patchBenchSetup(b, batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				aspen.PatchFlatSnapshot(fs, g2)
			}
		})
	}
}

// BenchmarkDiffVersions isolates the tree-diff walk the patch rides on:
// O(d log(n/d + 1)) on EqualRep-sharing versions.
func BenchmarkDiffVersions(b *testing.B) {
	base, _, next := patchBenchSetup(b, 1_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		aspen.DiffVersions(base, next, func(aspen.VertexDelta[struct{}]) bool { return true })
	}
}
