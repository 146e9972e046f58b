package shard

import (
	"fmt"
	"testing"

	"repro/internal/aspen"
	"repro/internal/ctree"
	"repro/internal/rmat"
	"repro/internal/stream"
)

// benchCluster builds a cluster preloaded with an rMAT graph and
// barriered, for the read-path benchmarks and alloc gates.
func benchCluster(b testing.TB, shards int) *Cluster[aspen.Graph, aspen.Edge] {
	b.Helper()
	gen := rmat.NewGenerator(14, 42)
	c := NewGraphCluster[struct{}](NewRangePartitioner(shards, 1<<14), ctree.DefaultParams(), stream.Options{})
	if _, err := c.Insert(aspen.MakeUndirected(gen.Edges(0, 200_000))); err != nil {
		b.Fatal(err)
	}
	if err := c.Barrier(); err != nil {
		b.Fatal(err)
	}
	return c
}

// beginCloseOp is the sharded read-tx hot path, the op of
// BenchmarkClusterBeginClose: pin one version per shard, release. Pooled
// transactions keep it allocation-free (TestBeginCloseAllocFree).
func beginCloseOp(c *Cluster[aspen.Graph, aspen.Edge]) func() {
	return func() {
		tx := c.Begin()
		tx.Close()
	}
}

// flatStitchCachedOp is the steady-state stitched-flat path, the op of
// BenchmarkClusterFlatStitchCached: the vector is unchanged, so Flat is a
// slot hit (TestBeginCloseAllocFree holds it at 0 allocs).
func flatStitchCachedOp(tb testing.TB, c *Cluster[aspen.Graph, aspen.Edge]) func() {
	warm := c.Begin()
	warm.Flat()
	warm.Close()
	return func() {
		tx := c.Begin()
		if tx.Flat() == nil {
			tb.Fatal("no flat view")
		}
		tx.Close()
	}
}

// routeEdges and routeOp are the per-batch routing cost of BenchmarkRoute
// (counting scatter into one backing array).
var routeEdges = aspen.MakeUndirected(rmat.NewGenerator(16, 7).Edges(0, 5_000))

func routeOp() func() {
	p := NewRangePartitioner(4, 1<<16)
	return func() { Route(p, routeEdges, EdgeSource) }
}

func benchOp(b *testing.B, op func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func BenchmarkClusterBeginClose(b *testing.B) {
	c := benchCluster(b, 4)
	defer c.Close()
	benchOp(b, beginCloseOp(c))
}

func BenchmarkClusterFlatStitchCached(b *testing.B) {
	c := benchCluster(b, 4)
	defer c.Close()
	benchOp(b, flatStitchCachedOp(b, c))
}

func BenchmarkRoute(b *testing.B) {
	b.SetBytes(int64(len(routeEdges) * 8))
	benchOp(b, routeOp())
}

// BenchmarkShardedIngest measures saturated ingest throughput through the
// cluster facade at 1, 2 and 4 shards — the multi-writer scaling surface
// (edges/sec is the headline §7.8 comparison; on a single-core host the
// shard counts should at least not regress each other).
func BenchmarkShardedIngest(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			gen := rmat.NewGenerator(16, 9)
			c := NewGraphCluster[struct{}](NewRangePartitioner(shards, 1<<16), ctree.DefaultParams(), stream.Options{})
			if _, err := c.Insert(aspen.MakeUndirected(gen.Edges(0, 100_000))); err != nil {
				b.Fatal(err)
			}
			if err := c.Barrier(); err != nil {
				b.Fatal(err)
			}
			const batchSize = 5_000
			pos := uint64(100_000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch := aspen.MakeUndirected(gen.Edges(pos, pos+batchSize))
				pos += batchSize
				if _, err := c.Insert(batch); err != nil {
					b.Fatal(err)
				}
			}
			if err := c.Barrier(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N*batchSize*2)/b.Elapsed().Seconds(), "edges/sec")
			c.Close()
		})
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

// TestBeginCloseAllocFree holds BenchmarkClusterBeginClose's and
// BenchmarkClusterFlatStitchCached's ops at their pinned 0 allocs/op.
func TestBeginCloseAllocFree(t *testing.T) {
	if raceEnabled {
		// The race detector makes sync.Pool drop items at random, so the
		// pooled-tx path cannot be allocation-free under it; the non-race
		// lanes hold the 0-alloc guarantee.
		t.Skip("pooled allocations are not deterministic under -race")
	}
	c := benchCluster(t, 4)
	defer c.Close()
	if avg := testing.AllocsPerRun(200, beginCloseOp(c)); avg > 0 {
		t.Fatalf("Begin/Close allocates %.1f objects per op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, flatStitchCachedOp(t, c)); avg > 0 {
		t.Fatalf("Begin/Flat/Close (cached) allocates %.1f objects per op, want 0", avg)
	}
}
