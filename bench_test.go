// Package repro holds the top-level benchmark suite: one testing.B benchmark
// per table and figure of the paper's evaluation (§7). Each benchmark
// exercises the operation its table measures, at a scale suited to `go test
// -bench`; the full table generators (sweeps, baselines, formatted rows)
// live in internal/bench and the aspen-bench command.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/algos"
	"repro/internal/aspen"
	"repro/internal/csr"
	"repro/internal/ctree"
	"repro/internal/encoding"
	"repro/internal/ligra"
	"repro/internal/llama"
	"repro/internal/rmat"
	"repro/internal/stinger"
	"repro/internal/worklist"
)

// benchScale/benchEdges size the shared benchmark graph (~300k directed
// edges after symmetrization).
const (
	benchScale = 14
	benchEdges = 150_000
)

func benchAdjacency() [][]uint32 {
	return rmat.NewGenerator(benchScale, 1).Adjacency(benchEdges)
}

func benchGraph(b *testing.B, p ctree.Params) aspen.Graph {
	b.Helper()
	return aspen.FromAdjacency(p, benchAdjacency())
}

// BenchmarkTable01GraphStats measures snapshot construction and the O(1)
// statistics queries backing Table 1.
func BenchmarkTable01GraphStats(b *testing.B) {
	adj := benchAdjacency()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := aspen.FromAdjacency(ctree.DefaultParams(), adj)
		_ = g.NumVertices()
		_ = g.NumEdges()
	}
}

// BenchmarkTable02MemoryUsage builds each Aspen memory format and reports
// bytes/edge (Table 2).
func BenchmarkTable02MemoryUsage(b *testing.B) {
	adj := benchAdjacency()
	for _, f := range []struct {
		name string
		p    ctree.Params
	}{
		{"Uncompressed", ctree.PlainParams()},
		{"NoDE", ctree.Params{B: ctree.DefaultB, Codec: encoding.Raw}},
		{"DE", ctree.DefaultParams()},
	} {
		b.Run(f.name, func(b *testing.B) {
			var g aspen.Graph
			for i := 0; i < b.N; i++ {
				g = aspen.FromAdjacency(f.p, adj)
			}
			s := g.Stats()
			b.ReportMetric(float64(s.Edge.ChunkBytes)/float64(g.NumEdges()), "chunkB/edge")
		})
	}
}

// BenchmarkTable03BFS/BC/MIS/TwoHop/LocalCluster are the algorithm rows of
// Tables 3-4 over the Aspen graph with flat snapshots.
func BenchmarkTable03BFS(b *testing.B) {
	fs := aspen.BuildFlatSnapshot(benchGraph(b, ctree.DefaultParams()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		algos.BFS(fs, 0, false)
	}
}

func BenchmarkTable03BC(b *testing.B) {
	fs := aspen.BuildFlatSnapshot(benchGraph(b, ctree.DefaultParams()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		algos.BC(fs, 0, false)
	}
}

func BenchmarkTable03MIS(b *testing.B) {
	fs := aspen.BuildFlatSnapshot(benchGraph(b, ctree.DefaultParams()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		algos.MIS(fs, 42)
	}
}

func BenchmarkTable03TwoHop(b *testing.B) {
	g := benchGraph(b, ctree.DefaultParams())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		algos.TwoHop(g, uint32(i)%uint32(g.Order()))
	}
}

func BenchmarkTable03LocalCluster(b *testing.B) {
	g := benchGraph(b, ctree.DefaultParams())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		algos.LocalCluster(g, uint32(i)%uint32(g.Order()), 1e-6, 10)
	}
}

// BenchmarkTable05ChunkSize sweeps the chunking parameter b (Table 5).
func BenchmarkTable05ChunkSize(b *testing.B) {
	adj := benchAdjacency()
	for _, exp := range []int{2, 5, 8, 11} {
		b.Run(fmt.Sprintf("b=2^%d", exp), func(b *testing.B) {
			p := ctree.DefaultParams()
			p.B = 1 << exp
			g := aspen.FromAdjacency(p, adj)
			fs := aspen.BuildFlatSnapshot(g)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				algos.BFS(fs, 0, false)
			}
		})
	}
}

// BenchmarkTable06FlatSnapshot measures snapshot flattening (Table 6's FS
// column) and BFS with/without it.
func BenchmarkTable06FlatSnapshot(b *testing.B) {
	g := benchGraph(b, ctree.DefaultParams())
	b.Run("BuildFS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			aspen.BuildFlatSnapshot(g)
		}
	})
	b.Run("BFSWithoutFS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			algos.BFS(g, 0, false)
		}
	})
	b.Run("BFSWithFS", func(b *testing.B) {
		fs := aspen.BuildFlatSnapshot(g)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			algos.BFS(fs, 0, false)
		}
	})
}

// BenchmarkTable07SingleUpdates measures the sequential single-edge update
// path (Table 7's update stream).
func BenchmarkTable07SingleUpdates(b *testing.B) {
	vg := aspen.NewVersioned(benchGraph(b, ctree.DefaultParams()))
	gen := rmat.NewGenerator(benchScale, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := gen.Edge(uint64(i))
		ue := aspen.MakeUndirected([]aspen.Edge{e})
		vg.Update(func(g aspen.Graph) aspen.Graph { return g.InsertEdges(ue) })
	}
}

// BenchmarkTable08BatchInsert measures batch-insert throughput by batch size
// (Table 8); edges/sec is the reported metric.
func BenchmarkTable08BatchInsert(b *testing.B) {
	g := benchGraph(b, ctree.DefaultParams())
	gen := rmat.NewGenerator(benchScale, 5)
	for _, size := range []int{10, 1_000, 100_000} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			batch := gen.Edges(0, uint64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.InsertEdges(batch)
			}
			b.ReportMetric(float64(size)*float64(b.N)/b.Elapsed().Seconds(), "edges/sec")
		})
	}
}

// BenchmarkFigure05BatchDelete is the deletion series of Figure 5.
func BenchmarkFigure05BatchDelete(b *testing.B) {
	base := benchGraph(b, ctree.DefaultParams())
	gen := rmat.NewGenerator(benchScale, 5)
	for _, size := range []int{10, 1_000, 100_000} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			batch := gen.Edges(0, uint64(size))
			g := base.InsertEdges(batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.DeleteEdges(batch)
			}
			b.ReportMetric(float64(size)*float64(b.N)/b.Elapsed().Seconds(), "edges/sec")
		})
	}
}

// BenchmarkInsertEdges measures the batch-insert hot path (sort → group →
// build → fused MultiInsert) directly, reporting edges/sec and allocs/op.
// This is the headline number for the zero-allocation chunk pipeline.
func BenchmarkInsertEdges(b *testing.B) {
	g := benchGraph(b, ctree.DefaultParams())
	gen := rmat.NewGenerator(benchScale, 21)
	for _, size := range []int{100, 10_000, 1_000_000} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			batch := gen.Edges(0, uint64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.InsertEdges(batch)
			}
			b.ReportMetric(float64(size)*float64(b.N)/b.Elapsed().Seconds(), "edges/sec")
		})
	}
}

// BenchmarkEdgeMap measures one EdgeMap relaxation round over a mid-size
// frontier (the traversal primitive under BFS/BC), reporting allocs/op.
func BenchmarkEdgeMap(b *testing.B) {
	g := benchGraph(b, ctree.DefaultParams())
	n := g.Order()
	frontier := make([]uint32, 0, n/16)
	for v := 0; v < n; v += 16 {
		frontier = append(frontier, uint32(v))
	}
	f := func(src, dst uint32) bool { return true }
	c := func(v uint32) bool { return true }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := ligra.FromSparse(n, frontier)
		ligra.EdgeMap(g, u, f, c, ligra.EdgeMapOpts{})
	}
}

// BenchmarkTable09Memory builds each system and reports bytes/edge (Table 9).
func BenchmarkTable09Memory(b *testing.B) {
	adj := benchAdjacency()
	var m uint64
	for _, nbrs := range adj {
		m += uint64(len(nbrs))
	}
	b.Run("Stinger", func(b *testing.B) {
		var g *stinger.Graph
		for i := 0; i < b.N; i++ {
			g = stinger.New(len(adj))
			for u, nbrs := range adj {
				for _, v := range nbrs {
					g.InsertEdge(uint32(u), v)
				}
			}
		}
		b.ReportMetric(float64(g.MemoryBytes())/float64(m), "B/edge")
	})
	b.Run("LLAMA", func(b *testing.B) {
		var g *llama.Graph
		for i := 0; i < b.N; i++ {
			g = llama.FromAdjacency(adj)
		}
		b.ReportMetric(float64(g.MemoryBytes())/float64(m), "B/edge")
	})
	b.Run("LigraPlus", func(b *testing.B) {
		var g *csr.Compressed
		for i := 0; i < b.N; i++ {
			g = csr.CompressAdjacency(adj)
		}
		b.ReportMetric(float64(g.MemoryBytes())/float64(m), "B/edge")
	})
}

// BenchmarkTable10EmptyGraphBatch compares batch inserts into empty graphs:
// the Stinger analogue versus Aspen (Table 10).
func BenchmarkTable10EmptyGraphBatch(b *testing.B) {
	gen := rmat.NewGenerator(16, 7)
	const size = 10_000
	batch := gen.Edges(0, size)
	b.Run("Stinger", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st := stinger.New(1 << 16)
			st.InsertBatch(batch)
		}
		b.ReportMetric(float64(size)*float64(b.N)/b.Elapsed().Seconds(), "edges/sec")
	})
	b.Run("Aspen", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			aspen.NewGraph(ctree.DefaultParams()).InsertEdges(batch)
		}
		b.ReportMetric(float64(size)*float64(b.N)/b.Elapsed().Seconds(), "edges/sec")
	})
}

// BenchmarkTable11BFSNoDirectionOpt compares BFS without direction
// optimization across streaming systems (Table 11).
func BenchmarkTable11BFSNoDirectionOpt(b *testing.B) {
	adj := benchAdjacency()
	b.Run("Stinger", func(b *testing.B) {
		st := stinger.New(len(adj))
		for u, nbrs := range adj {
			for _, v := range nbrs {
				st.InsertEdge(uint32(u), v)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			algos.BFS(st, 0, true)
		}
	})
	b.Run("LLAMA", func(b *testing.B) {
		g := llama.FromAdjacency(adj)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			algos.BFS(g, 0, true)
		}
	})
	b.Run("Aspen", func(b *testing.B) {
		fs := aspen.BuildFlatSnapshot(aspen.FromAdjacency(ctree.DefaultParams(), adj))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			algos.BFS(fs, 0, true)
		}
	})
}

// BenchmarkTable12StaticEngines compares BFS across the static baselines and
// Aspen (Table 12).
func BenchmarkTable12StaticEngines(b *testing.B) {
	adj := benchAdjacency()
	b.Run("GAP", func(b *testing.B) {
		g := csr.FromAdjacency(adj)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			algos.BFS(g, 0, false)
		}
	})
	b.Run("Galois", func(b *testing.B) {
		g := csr.FromAdjacency(adj)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			worklist.BFSAsync(g, 0)
		}
	})
	b.Run("LigraPlus", func(b *testing.B) {
		g := csr.CompressAdjacency(adj)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			algos.BFS(g, 0, false)
		}
	})
	b.Run("Aspen", func(b *testing.B) {
		fs := aspen.BuildFlatSnapshot(aspen.FromAdjacency(ctree.DefaultParams(), adj))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			algos.BFS(fs, 0, false)
		}
	})
}

// BenchmarkTable13UncompressedTrees compares BFS over plain purely-functional
// trees versus C-trees (Table 13).
func BenchmarkTable13UncompressedTrees(b *testing.B) {
	adj := benchAdjacency()
	b.Run("Uncompressed", func(b *testing.B) {
		fs := aspen.BuildFlatSnapshot(aspen.FromAdjacency(ctree.PlainParams(), adj))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			algos.BFS(fs, 0, false)
		}
	})
	b.Run("CTreeDE", func(b *testing.B) {
		fs := aspen.BuildFlatSnapshot(aspen.FromAdjacency(ctree.DefaultParams(), adj))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			algos.BFS(fs, 0, false)
		}
	})
}

// BenchmarkTable14LocalAlgorithms compares the local queries between the
// Ligra+ baseline and Aspen (Tables 14-15's local rows).
func BenchmarkTable14LocalAlgorithms(b *testing.B) {
	adj := benchAdjacency()
	lp := csr.CompressAdjacency(adj)
	g := aspen.FromAdjacency(ctree.DefaultParams(), adj)
	b.Run("LigraPlus2hop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			algos.TwoHop(lp, uint32(i)%uint32(lp.Order()))
		}
	})
	b.Run("Aspen2hop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			algos.TwoHop(g, uint32(i)%uint32(g.Order()))
		}
	})
	b.Run("LigraPlusLocalCluster", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			algos.LocalCluster(lp, uint32(i)%uint32(lp.Order()), 1e-6, 10)
		}
	})
	b.Run("AspenLocalCluster", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			algos.LocalCluster(g, uint32(i)%uint32(g.Order()), 1e-6, 10)
		}
	})
}
