package shard

import (
	"testing"

	"repro/internal/aspen"
	"repro/internal/rmat"
)

// routeEdges and routeOp are the per-batch routing cost of BenchmarkRoute
// (counting scatter into one backing array).
var routeEdges = aspen.MakeUndirected(rmat.NewGenerator(16, 7).Edges(0, 5_000))

func routeOp() func() {
	p := NewRangePartitioner(4, 1<<16)
	return func() { Route(p, routeEdges, EdgeSource) }
}

func BenchmarkRoute(b *testing.B) {
	b.SetBytes(int64(len(routeEdges) * 8))
	op := routeOp()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// TestRouteAllocs holds BenchmarkRoute's op at its pinned 7 allocs/op ×
// 1.15. Re-pinning it edits the number here with a BENCHMARKS.md line
// saying why.
func TestRouteAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(200, routeOp()); n > 7*1.15 {
		t.Errorf("Route allocates %.0f objects per op, gate 7 × 1.15", n)
	}
}
