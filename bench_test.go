// Package repro holds the paper harness: one testing.B benchmark per table
// and figure of the paper's evaluation (§7). A table's rows are
// sub-benchmarks and its columns are ns/op plus b.ReportMetric units, over
// the one rMAT bench graph (benchScale) that suits `go test -bench`.
// DESIGN.md "Experiment index" maps each paper artifact to its -bench
// pattern. The streaming numbers (§7.8) are the ledger's (bench/ledger).
package repro

import (
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/algos"
	"repro/internal/aspen"
	"repro/internal/csr"
	"repro/internal/ctree"
	"repro/internal/encoding"
	"repro/internal/ligra"
	"repro/internal/llama"
	"repro/internal/parallel"
	"repro/internal/rmat"
	"repro/internal/stinger"
	"repro/internal/stream"
	"repro/internal/worklist"
)

// benchScale/benchEdges size the shared benchmark graph: 16 384 vertices
// and 274 042 directed edges after symmetrization and deduplication.
const (
	benchScale = 14
	benchEdges = 150_000
)

func benchAdjacency() [][]uint32 {
	return rmat.NewGenerator(benchScale, 1).Adjacency(benchEdges)
}

func benchGraph(b testing.TB, p ctree.Params) aspen.Graph {
	b.Helper()
	return aspen.FromAdjacency(p, benchAdjacency())
}

// row is one named op of a paper table.
type row struct {
	name string
	run  func()
}

// benchRows runs each row as a sub-benchmark of b.
func benchRows(b *testing.B, rows ...row) {
	for _, r := range rows {
		b.Run(r.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r.run()
			}
		})
	}
}

// Analytic node sizes from the paper (§7.1): in the uncompressed format a
// vertex-tree node is 48 bytes and an edge-tree node 32 bytes; with C-trees
// a vertex-tree node is 56 bytes (prefix pointers + padding) and an
// edge-tree (head) node 48 bytes. Computing memory from node and chunk
// counts is how the paper reports footprints for graphs that exceed
// physical memory.
const (
	uncompVertexNode = 48
	uncompEdgeNode   = 32
	ctreeVertexNode  = 56
	ctreeEdgeNode    = 48
)

// aspenMemoryBytes returns the analytic footprint of an Aspen graph under
// its configured format.
func aspenMemoryBytes(g aspen.Graph) uint64 {
	s := g.Stats()
	if g.Params().Plain {
		return uint64(s.VertexNodes)*uncompVertexNode + uint64(s.Edge.Nodes)*uncompEdgeNode
	}
	return uint64(s.VertexNodes)*ctreeVertexNode +
		uint64(s.Edge.Nodes)*ctreeEdgeNode +
		uint64(s.Edge.ChunkBytes)
}

// TestMemoryAccountingOrdering: delta encoding makes the smallest of Table
// 2's formats, and plain trees the largest.
func TestMemoryAccountingOrdering(t *testing.T) {
	adj := rmat.NewGenerator(10, 1).Adjacency(8_000)
	var sizes []uint64
	for _, p := range []ctree.Params{ctree.PlainParams(), {B: 128, Codec: encoding.Raw}, {B: 128, Codec: encoding.Delta}} {
		sizes = append(sizes, aspenMemoryBytes(aspen.FromAdjacency(p, adj)))
	}
	if !(sizes[0] > sizes[1] && sizes[1] >= sizes[2]) {
		t.Fatalf("expected Uncomp > NoDE >= DE, got %v", sizes)
	}
}

// bytesPerEdge reports g's analytic footprint per directed edge as B/edge.
func bytesPerEdge(b *testing.B, g aspen.Graph) {
	b.ReportMetric(float64(aspenMemoryBytes(g))/float64(g.NumEdges()), "B/edge")
}

// atProcs runs f with the runtime and the parallel primitives both at procs
// workers, and restores both. parallel.Procs is read once at package init,
// so -cpu alone does not reach the primitives.
func atProcs(procs int, f func()) {
	defer func(g, p int) { runtime.GOMAXPROCS(g); parallel.Procs = p }(runtime.GOMAXPROCS(procs), parallel.Procs)
	parallel.Procs = procs
	f()
}

// benchAtProcs runs op as sub-benchmarks procs=1 and procs=<machine width>
// (the width parallel.Procs starts at): the one-thread and all-core
// columns of Tables 3-4.
func benchAtProcs(b *testing.B, op func(i int)) {
	for _, p := range slices.Compact([]int{1, parallel.Procs}) {
		b.Run(fmt.Sprintf("procs=%d", p), func(b *testing.B) {
			atProcs(p, func() {
				for i := 0; i < b.N; i++ {
					op(i)
				}
			})
		})
	}
}

// BenchmarkTable01GraphStats measures snapshot construction and the O(1)
// statistics queries backing Table 1, and reports the bench graph's row.
func BenchmarkTable01GraphStats(b *testing.B) {
	adj := benchAdjacency()
	var g aspen.Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g = aspen.FromAdjacency(ctree.DefaultParams(), adj)
		_ = g.NumVertices()
		_ = g.NumEdges()
	}
	n, m := float64(g.NumVertices()), float64(g.NumEdges())
	b.ReportMetric(n, "vertices")
	b.ReportMetric(m, "edges")
	b.ReportMetric(m/n, "avg-degree")
}

// BenchmarkTable02MemoryUsage builds each Aspen memory format and reports
// its analytic footprint and chunk payload per edge, and the flat
// snapshot's one 8-byte pointer per vertex id (Table 2).
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
			m := float64(g.NumEdges())
			b.ReportMetric(float64(g.Stats().Edge.ChunkBytes)/m, "chunkB/edge")
			bytesPerEdge(b, g)
			b.ReportMetric(float64(8*g.Order())/m, "flatB/edge")
		})
	}
}

// BenchmarkTable03BFS/BC/MIS/TwoHop/LocalCluster are the algorithm rows of
// Tables 3-4 over the Aspen graph, global kernels on its flat snapshot,
// each at one worker and at the machine's width (benchAtProcs).
func BenchmarkTable03BFS(b *testing.B) {
	fs := aspen.BuildFlatSnapshot(benchGraph(b, ctree.DefaultParams()))
	benchAtProcs(b, func(int) { algos.BFS(fs, 0, false) })
}

func BenchmarkTable03BC(b *testing.B) {
	fs := aspen.BuildFlatSnapshot(benchGraph(b, ctree.DefaultParams()))
	benchAtProcs(b, func(int) { algos.BC(fs, 0, false) })
}

func BenchmarkTable03MIS(b *testing.B) {
	fs := aspen.BuildFlatSnapshot(benchGraph(b, ctree.DefaultParams()))
	benchAtProcs(b, func(int) { algos.MIS(fs, 42) })
}

func BenchmarkTable03TwoHop(b *testing.B) {
	g := benchGraph(b, ctree.DefaultParams())
	benchAtProcs(b, func(i int) { algos.TwoHop(g, uint32(i)%uint32(g.Order())) })
}

func BenchmarkTable03LocalCluster(b *testing.B) {
	g := benchGraph(b, ctree.DefaultParams())
	benchAtProcs(b, func(i int) { algos.LocalCluster(g, uint32(i)%uint32(g.Order()), 1e-6, 10) })
}

// BenchmarkTable05ChunkSize sweeps the chunking parameter b (Table 5): the
// global kernels on the flat snapshot, each row with its graph's B/edge.
func BenchmarkTable05ChunkSize(b *testing.B) {
	adj := benchAdjacency()
	for _, exp := range []int{2, 5, 8, 11} {
		b.Run(fmt.Sprintf("b=2^%d", exp), func(b *testing.B) {
			p := ctree.DefaultParams()
			p.B = 1 << exp
			g := aspen.FromAdjacency(p, adj)
			fs := aspen.BuildFlatSnapshot(g)
			for _, r := range []row{
				{"BFS", func() { algos.BFS(fs, 0, false) }},
				{"BC", func() { algos.BC(fs, 0, false) }},
				{"MIS", func() { algos.MIS(fs, 42) }},
			} {
				b.Run(r.name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						r.run()
					}
					bytesPerEdge(b, g)
				})
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

// BenchmarkTable07BFSLatency is Table 7's query columns: BFS from vertex 0
// over the bench graph's trees, on a quiet version (isolated) and on the
// version current while a goroutine streams single-edge updates through
// aspen.Versioned (concurrent, with the updates/sec it reached). Both read
// the trees: under updates every query meets a new version, whose flat
// snapshot would be built for that query alone.
func BenchmarkTable07BFSLatency(b *testing.B) {
	base := benchGraph(b, ctree.DefaultParams())
	b.Run("isolated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			algos.BFS(base, 0, false)
		}
	})
	b.Run("concurrent", func(b *testing.B) {
		vg := aspen.NewVersioned(base)
		gen := rmat.NewGenerator(benchScale, 9)
		var stop atomic.Bool
		var updates atomic.Uint64
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := uint64(0); !stop.Load(); i++ {
				ue := aspen.MakeUndirected([]aspen.Edge{gen.Edge(i)})
				vg.Update(func(g aspen.Graph) aspen.Graph { return g.InsertEdges(ue) })
				updates.Add(1)
			}
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v := vg.Acquire()
			algos.BFS(v.Graph, 0, false)
			vg.Release(v)
		}
		b.StopTimer()
		stop.Store(true)
		<-done
		b.ReportMetric(float64(updates.Load())/b.Elapsed().Seconds(), "updates/sec")
	})
}

// batchInsertOp inserts the first size edges of the rMAT stream seeded
// seed into g, a new version each call: the op of BenchmarkTable08BatchInsert
// (seed 5) and BenchmarkInsertEdges (seed 21), and of their allocation
// gates.
func batchInsertOp(g aspen.Graph, seed uint64, size int) func() {
	batch := rmat.NewGenerator(benchScale, seed).Edges(0, uint64(size))
	return func() { g.InsertEdges(batch) }
}

// benchEdgesPerSec runs op b.N times and reports edges/sec for size-edge
// ops beside allocs/op.
func benchEdgesPerSec(b *testing.B, op func(), size int) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.ReportMetric(float64(size)*float64(b.N)/b.Elapsed().Seconds(), "edges/sec")
}

// BenchmarkTable08BatchInsert measures batch-insert throughput by batch size
// (Table 8); edges/sec is the reported metric.
func BenchmarkTable08BatchInsert(b *testing.B) {
	g := benchGraph(b, ctree.DefaultParams())
	for _, size := range []int{10, 1_000, 100_000} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			benchEdgesPerSec(b, batchInsertOp(g, 5, size), size)
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
	for _, size := range []int{100, 10_000, 1_000_000} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			benchEdgesPerSec(b, batchInsertOp(g, 21, size), size)
		})
	}
}

// applyRunsFixture is the input of BenchmarkApplyRuns: an rMAT-16 graph of
// 500 000 sampled edges (both directions), aged by 2 000 batches of the
// §7.8 schedule (500 sampled edges a batch, one delete batch in ten), and
// 25 commits of 32 further batches, each folded into same-kind runs as
// stream.Engine folds them (about seven runs a commit). The aging batches
// are folded the same way and applied in one ApplyRuns pass: the commits'
// allocation count reads the same as on a graph aged batch by batch
// (1.7248 M against 1.7249 M), for a sixth of the setup time.
type applyRunsFixture struct {
	base  aspen.Graph
	runs  [][]aspen.Run[struct{}]
	edges int
}

func newApplyRunsFixture() applyRunsFixture {
	const (
		scale, preload, batch = 16, 500_000, 500
		aging, commits, group = 2_000, 25, 32
	)
	gen := rmat.NewGenerator(scale, 37)
	mk := func(lo, hi uint64) []aspen.Edge { return aspen.MakeUndirected(gen.Edges(lo, hi)) }
	next := stream.UpdateScheduleMix(preload, batch, 10, mk)
	// fold reads batches [lo, hi) of the schedule as one commit's runs.
	fold := func(lo, hi uint64) (rs []aspen.Run[struct{}], edges int) {
		for i := lo; i < hi; i++ {
			del, es := next(i)
			edges += len(es)
			if n := len(rs); n > 0 && rs[n-1].Del == del {
				rs[n-1].Edges = append(rs[n-1].Edges, es...)
			} else {
				rs = append(rs, aspen.Run[struct{}]{Del: del, Edges: es})
			}
		}
		return rs, edges
	}
	aged, _ := fold(0, aging)
	f := applyRunsFixture{base: aspen.NewGraph(ctree.DefaultParams()).InsertEdges(mk(0, preload)).ApplyRuns(aged)}
	for c := uint64(0); c < commits; c++ {
		rs, edges := fold(aging+c*group, aging+(c+1)*group)
		f.runs = append(f.runs, rs)
		f.edges += edges
	}
	return f
}

// op applies the 25 commits in order, each through apply.
func (f applyRunsFixture) op(apply func(aspen.Graph, []aspen.Run[struct{}]) aspen.Graph) func() {
	return func() {
		g := f.base
		for _, rs := range f.runs {
			g = apply(g, rs)
		}
		benchSink = g.NumEdges()
	}
}

// BenchmarkApplyRuns measures the apply of saturated commits in the shape
// the ledger's engine.update workload gives them (applyRunsFixture). One
// op applies the 25 commits in order. per-run applies a commit run by run
// through InsertEdges / DeleteEdges, one sort and one vertex-tree pass
// each; one-pass applies it with one ApplyRuns.
func BenchmarkApplyRuns(b *testing.B) {
	f := newApplyRunsFixture()
	for _, c := range []struct {
		name  string
		apply func(aspen.Graph, []aspen.Run[struct{}]) aspen.Graph
	}{
		{"per-run", applyPerRun},
		{"one-pass", aspen.Graph.ApplyRuns},
	} {
		b.Run(c.name, func(b *testing.B) {
			benchEdgesPerSec(b, f.op(c.apply), f.edges)
		})
	}
}

func applyPerRun(g aspen.Graph, rs []aspen.Run[struct{}]) aspen.Graph {
	for _, r := range rs {
		if r.Del {
			g = g.DeleteEdges(r.Edges)
		} else {
			g = g.InsertEdges(r.Edges)
		}
	}
	return g
}

// benchSink keeps benchmarked results alive.
var benchSink uint64

// edgeMapOp is one EdgeMap relaxation round over a mid-size frontier (the
// traversal primitive under BFS/BC): the op of BenchmarkEdgeMap and its
// allocation gate.
func edgeMapOp(g aspen.Graph) func() {
	n := g.Order()
	frontier := make([]uint32, 0, n/16)
	for v := 0; v < n; v += 16 {
		frontier = append(frontier, uint32(v))
	}
	f := func(src, dst uint32) bool { return true }
	c := func(v uint32) bool { return true }
	return func() {
		u := ligra.FromSparse(n, frontier)
		ligra.EdgeMap(g, u, f, c, ligra.EdgeMapOpts{})
	}
}

// BenchmarkEdgeMap measures edgeMapOp, reporting allocs/op.
func BenchmarkEdgeMap(b *testing.B) {
	op := edgeMapOp(benchGraph(b, ctree.DefaultParams()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// stingerOf builds the Stinger analogue of adj, one edge insert at a time.
func stingerOf(adj [][]uint32) *stinger.Graph {
	g := stinger.New(len(adj))
	for u, nbrs := range adj {
		for _, v := range nbrs {
			g.InsertEdge(uint32(u), v)
		}
	}
	return g
}

// BenchmarkTable09Memory builds each system and reports bytes/edge (Table 9):
// measured for the baselines, analytic for Aspen (Table 2's DE row).
func BenchmarkTable09Memory(b *testing.B) {
	adj := benchAdjacency()
	var m uint64
	for _, nbrs := range adj {
		m += uint64(len(nbrs))
	}
	b.Run("Stinger", func(b *testing.B) {
		var g *stinger.Graph
		for i := 0; i < b.N; i++ {
			g = stingerOf(adj)
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
	b.Run("Aspen", func(b *testing.B) {
		var g aspen.Graph
		for i := 0; i < b.N; i++ {
			g = aspen.FromAdjacency(ctree.DefaultParams(), adj)
		}
		bytesPerEdge(b, g)
	})
}

// emptyGraphRows insert batch into a new, empty graph of each system: the
// Stinger analogue, pre-allocated for rMAT-16's vertices, and Aspen.
func emptyGraphRows(batch []aspen.Edge) []row {
	return []row{
		{"Stinger", func() { stinger.New(1 << 16).InsertBatch(batch) }},
		{"Aspen", func() { aspen.NewGraph(ctree.DefaultParams()).InsertEdges(batch) }},
	}
}

// BenchmarkTable10EmptyGraphBatch compares 10 000-edge batch inserts into
// empty graphs: the Stinger analogue versus Aspen (Table 10).
// BenchmarkTable10BatchSizes is the rest of the table's batch-size sweep.
func BenchmarkTable10EmptyGraphBatch(b *testing.B) {
	const size = 10_000
	for _, r := range emptyGraphRows(rmat.NewGenerator(16, 7).Edges(0, size)) {
		b.Run(r.name, func(b *testing.B) { benchEdgesPerSec(b, r.run, size) })
	}
}

// BenchmarkTable10BatchSizes sweeps Table 10's batch size around
// BenchmarkTable10EmptyGraphBatch's 10 000 edges.
func BenchmarkTable10BatchSizes(b *testing.B) {
	gen := rmat.NewGenerator(16, 7)
	for _, size := range []int{10, 100, 1_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			for _, r := range emptyGraphRows(gen.Edges(0, uint64(size))) {
				b.Run(r.name, func(b *testing.B) { benchEdgesPerSec(b, r.run, size) })
			}
		})
	}
}

// benchStreamingSystems runs kernel as one row per streaming system of
// Table 11, each holding the bench graph: the Stinger and LLAMA analogues,
// and Aspen's flat snapshot.
func benchStreamingSystems(b *testing.B, kernel func(g ligra.Graph)) {
	adj := benchAdjacency()
	st, ll := stingerOf(adj), llama.FromAdjacency(adj)
	fs := aspen.BuildFlatSnapshot(aspen.FromAdjacency(ctree.DefaultParams(), adj))
	benchRows(b,
		row{"Stinger", func() { kernel(st) }},
		row{"LLAMA", func() { kernel(ll) }},
		row{"Aspen", func() { kernel(fs) }},
	)
}

// BenchmarkTable11BFSNoDirectionOpt and BenchmarkTable11BCNoDirectionOpt
// compare BFS and BC without direction optimization across streaming
// systems (Table 11).
func BenchmarkTable11BFSNoDirectionOpt(b *testing.B) {
	benchStreamingSystems(b, func(g ligra.Graph) { algos.BFS(g, 0, true) })
}

func BenchmarkTable11BCNoDirectionOpt(b *testing.B) {
	benchStreamingSystems(b, func(g ligra.Graph) { algos.BC(g, 0, true) })
}

// BenchmarkTable12StaticEngines compares BFS, BC and MIS across the static
// baselines and Aspen (Table 12): GAP-style flat CSR, the Galois-style
// asynchronous worklist (BFS, and a serial greedy MIS), Ligra+-style
// compressed CSR, and Aspen's flat snapshot. The LigraPlus and Aspen
// columns are also the global rows of Tables 14-15.
func BenchmarkTable12StaticEngines(b *testing.B) {
	adj := benchAdjacency()
	gap, lp := csr.FromAdjacency(adj), csr.CompressAdjacency(adj)
	fs := aspen.BuildFlatSnapshot(aspen.FromAdjacency(ctree.DefaultParams(), adj))
	benchRows(b,
		row{"BFS/GAP", func() { algos.BFS(gap, 0, false) }},
		row{"BFS/Galois", func() { worklist.BFSAsync(gap, 0) }},
		row{"BFS/LigraPlus", func() { algos.BFS(lp, 0, false) }},
		row{"BFS/Aspen", func() { algos.BFS(fs, 0, false) }},
		row{"BC/GAP", func() { algos.BC(gap, 0, false) }},
		row{"BC/LigraPlus", func() { algos.BC(lp, 0, false) }},
		row{"BC/Aspen", func() { algos.BC(fs, 0, false) }},
		row{"MIS/Galois", func() { worklist.MISSerial(gap) }},
		row{"MIS/LigraPlus", func() { algos.MIS(lp, 42) }},
		row{"MIS/Aspen", func() { algos.MIS(fs, 42) }},
	)
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

// BenchmarkAblationDirOpt isolates the direction optimization of §5.1
// (Table 11's A against A† columns): Aspen BFS and BC on the flat snapshot,
// sparse-only against direction-optimised.
func BenchmarkAblationDirOpt(b *testing.B) {
	fs := aspen.BuildFlatSnapshot(benchGraph(b, ctree.DefaultParams()))
	benchRows(b,
		row{"BFS/sparse", func() { algos.BFS(fs, 0, true) }},
		row{"BFS/diropt", func() { algos.BFS(fs, 0, false) }},
		row{"BC/sparse", func() { algos.BC(fs, 0, true) }},
		row{"BC/diropt", func() { algos.BC(fs, 0, false) }},
	)
}

// BenchmarkTable14LocalAlgorithms compares the local queries between the
// Ligra+ baseline and Aspen (Tables 14-15's local rows; the global rows are
// BenchmarkTable12StaticEngines' LigraPlus and Aspen columns).
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
