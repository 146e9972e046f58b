package stream

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/aspen"
	"repro/internal/ctree"
	"repro/internal/obs"
	"repro/internal/rmat"
)

// BenchmarkTxBeginClose measures the read-transaction pin/unpin pair — the
// fixed cost every query pays on top of its kernel. Must stay
// allocation-free (gated in CI).
func BenchmarkTxBeginClose(b *testing.B) {
	e := NewGraphEngine(aspen.NewGraph(ctree.DefaultParams()), Options{})
	defer e.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := e.Begin()
		tx.Close()
	}
}

// BenchmarkHistObserve measures the latency-sample cost paid on the commit
// path and by every reader. Must stay allocation-free (gated in CI).
func BenchmarkHistObserve(b *testing.B) {
	var h obs.Hist
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i))
	}
}

// BenchmarkTxFlatCached measures the steady-state cost of taking a read
// transaction on the §5.1 flat fast path: Begin + cached-Flat + Close. The
// view is built once per version, so after the first iteration every call
// is a cache hit — the map probe must stay cheap and allocation-free
// (gated in CI alongside TxBeginClose).
func BenchmarkTxFlatCached(b *testing.B) {
	gen := rmat.NewGenerator(16, 99)
	g := aspen.NewGraph(ctree.DefaultParams()).InsertEdges(aspen.MakeUndirected(gen.Edges(0, 50_000)))
	e := NewGraphEngine(g, Options{})
	defer e.Close()
	warm := e.Begin()
	warm.Flat() // pay the single per-version build outside the loop
	warm.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := e.Begin()
		tx.Flat()
		tx.Close()
	}
}

// BenchmarkFlatCacheFirstQuery measures the cold path: the first query
// after a commit pays one flat build for its version (amortized across all
// later readers of the same version).
func BenchmarkFlatCacheFirstQuery(b *testing.B) {
	gen := rmat.NewGenerator(16, 99)
	g := aspen.NewGraph(ctree.DefaultParams()).InsertEdges(aspen.MakeUndirected(gen.Edges(0, 50_000)))
	e := NewGraphEngine(g, Options{})
	defer e.Close()
	batch := aspen.MakeUndirected(gen.Edges(50_000, 50_500))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := e.Insert(batch)
		if err != nil {
			b.Fatal(err)
		}
		p.Wait()
		tx := e.Begin()
		tx.Flat()
		tx.Close()
	}
}

// BenchmarkEngineCommit measures end-to-end ingest through the queue and
// single-writer loop: submit one batch, wait for its commit. The per-batch
// engine overhead (queue, coalescing bookkeeping, ack) rides on top of the
// aspen batch insert.
func BenchmarkEngineCommit(b *testing.B) {
	for _, size := range []int{100, 10_000} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			gen := rmat.NewGenerator(20, 99)
			base := aspen.NewGraph(ctree.DefaultParams()).
				InsertEdges(aspen.MakeUndirected(gen.Edges(0, 100_000)))
			e := NewGraphEngine(base, Options{})
			defer e.Close()
			batch := gen.Edges(100_000, 100_000+uint64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := e.Insert(batch)
				if err != nil {
					b.Fatal(err)
				}
				p.Wait()
			}
			b.ReportMetric(float64(size)*float64(b.N)/b.Elapsed().Seconds(), "edges/sec")
		})
	}
}

// BenchmarkEnginePipelined measures sustained ingest with the queue kept
// full (waiting only at the end), the §7.8 writer configuration where
// coalescing can kick in.
func BenchmarkEnginePipelined(b *testing.B) {
	const size = 1_000
	gen := rmat.NewGenerator(20, 99)
	base := aspen.NewGraph(ctree.DefaultParams()).
		InsertEdges(aspen.MakeUndirected(gen.Edges(0, 100_000)))
	e := NewGraphEngine(base, Options{QueueCap: 64})
	defer e.Close()
	batch := gen.Edges(100_000, 100_000+size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Insert(batch); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := e.Flush(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(size)*float64(b.N)/b.Elapsed().Seconds(), "edges/sec")
}
