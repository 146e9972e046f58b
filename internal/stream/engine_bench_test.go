package stream

import (
	"fmt"
	"testing"

	"repro/internal/aspen"
	"repro/internal/ctree"
	"repro/internal/rmat"
)

// txBeginCloseOp is the read-transaction pin/unpin pair, the op of
// BenchmarkTxBeginClose: the fixed cost every query pays on top of its
// kernel. Must stay allocation-free (TestAllocGates).
func txBeginCloseOp(tb testing.TB) func() {
	e := NewGraphEngine(aspen.NewGraph(ctree.DefaultParams()), Options{})
	tb.Cleanup(e.Close)
	return func() {
		tx := e.Begin()
		tx.Close()
	}
}

// txFlatCachedOp is the steady-state cost of taking a read transaction on
// the §5.1 flat fast path, the op of BenchmarkTxFlatCached: Begin +
// cached-Flat + Close. The view is built once per version, here before the
// op is returned, so every call is a cache hit — the map probe must stay
// cheap and allocation-free (TestAllocGates).
func txFlatCachedOp(tb testing.TB) func() {
	gen := rmat.NewGenerator(16, 99)
	g := aspen.NewGraph(ctree.DefaultParams()).InsertEdges(aspen.MakeUndirected(gen.Edges(0, 50_000)))
	e := NewGraphEngine(g, Options{})
	tb.Cleanup(e.Close)
	warm := e.Begin()
	warm.Flat() // pay the single per-version build outside the loop
	warm.Close()
	return func() {
		tx := e.Begin()
		tx.Flat()
		tx.Close()
	}
}

func benchOp(b *testing.B, op func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func BenchmarkTxBeginClose(b *testing.B) { benchOp(b, txBeginCloseOp(b)) }
func BenchmarkTxFlatCached(b *testing.B) { benchOp(b, txFlatCachedOp(b)) }

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

// engineCommitOp is the op of BenchmarkEngineCommit and its allocation
// gate: end-to-end ingest through the queue and single-writer loop —
// submit one batch, wait for its commit. The per-batch engine overhead
// (queue, coalescing bookkeeping, ack) rides on top of the aspen batch
// insert.
func engineCommitOp(tb testing.TB, base aspen.Graph, size int) func() {
	gen := rmat.NewGenerator(20, 99)
	e := NewGraphEngine(base, Options{})
	tb.Cleanup(e.Close)
	batch := gen.Edges(100_000, 100_000+uint64(size))
	return func() {
		p, err := e.Insert(batch)
		if err != nil {
			tb.Fatal(err)
		}
		p.Wait()
	}
}

// engineCommitBase is the 100 000-edge scale-20 graph every
// engineCommitOp engine starts from.
func engineCommitBase() aspen.Graph {
	gen := rmat.NewGenerator(20, 99)
	return aspen.NewGraph(ctree.DefaultParams()).InsertEdges(aspen.MakeUndirected(gen.Edges(0, 100_000)))
}

func BenchmarkEngineCommit(b *testing.B) {
	base := engineCommitBase()
	for _, size := range []int{100, 10_000} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			benchOp(b, engineCommitOp(b, base, size))
			b.ReportMetric(float64(size)*float64(b.N)/b.Elapsed().Seconds(), "edges/sec")
		})
	}
}

// TestAllocGates holds each gated benchmark's op at no more than its
// pinned allocs/op × 1.15 (a pinned 0 stays 0). Re-pinning a gate edits
// its number here with a BENCHMARKS.md line saying why.
func TestAllocGates(t *testing.T) {
	base := engineCommitBase()
	for _, g := range []struct {
		name   string
		op     func(testing.TB) func()
		runs   int
		allocs float64
	}{
		{"BenchmarkTxBeginClose", txBeginCloseOp, 200, 0},
		{"BenchmarkTxFlatCached", txFlatCachedOp, 200, 0},
		{"BenchmarkEngineCommit/batch=100", func(tb testing.TB) func() { return engineCommitOp(tb, base, 100) }, 20, 1355},
		{"BenchmarkEngineCommit/batch=10000", func(tb testing.TB) func() { return engineCommitOp(tb, base, 10_000) }, 5, 50847},
	} {
		if n := testing.AllocsPerRun(g.runs, g.op(t)); n > g.allocs*1.15 {
			t.Errorf("%s: %.0f allocs/op, gate %.0f × 1.15", g.name, n, g.allocs)
		}
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
