package shard

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/algos"
	"repro/internal/aspen"
	"repro/internal/ctree"
	"repro/internal/ligra"
	"repro/internal/rmat"
	"repro/internal/xhash"
)

func testParams() ctree.Params { return ctree.Params{B: 8} }

// op is one update batch of a differential schedule.
type op struct {
	del   bool
	edges []aspen.Edge
}

// rmatOps builds an insert/delete schedule from the rMAT stream: batches of
// fresh inserts with every third batch followed by a delete replaying part
// of a previous one — the same shape the §7.8 driver uses.
func rmatOps(scale int, batches, batchSize int, seed uint64) []op {
	gen := rmat.NewGenerator(scale, seed)
	var ops []op
	var pos uint64
	for i := 0; i < batches; i++ {
		lo := pos
		pos += uint64(batchSize)
		ops = append(ops, op{edges: aspen.MakeUndirected(gen.Edges(lo, pos))})
		if i%3 == 2 && lo >= uint64(batchSize) {
			// Replay half of the previous batch as deletions.
			ops = append(ops, op{del: true,
				edges: aspen.MakeUndirected(gen.Edges(lo-uint64(batchSize), lo-uint64(batchSize)/2))})
		}
	}
	return ops
}

// randomOps builds uniform-random insert/delete batches (deletes drawn from
// the same distribution, so some hit and some miss).
func randomOps(idSpace uint32, batches, batchSize int, seed uint64) []op {
	rng := xhash.NewRNG(seed)
	var ops []op
	for i := 0; i < batches; i++ {
		edges := make([]aspen.Edge, 0, batchSize)
		for j := 0; j < batchSize; j++ {
			u, v := rng.Uint32()%idSpace, rng.Uint32()%idSpace
			if u != v {
				edges = append(edges, aspen.Edge{Src: u, Dst: v})
			}
		}
		ops = append(ops, op{del: i%4 == 3, edges: aspen.MakeUndirected(edges)})
	}
	return ops
}

// routed is a sharded graph read the way the remote client reads one, with
// no engines and no processes: one aspen graph per shard fed by Route, each
// shard's flat view patched from its previous one, and the views stitched
// off the previous stitch.
type routed[V ctree.Value] struct {
	part  Partitioner
	gs    []aspen.GraphOf[V]
	views []*aspen.FlatView[V]
	flat  ligra.Graph
}

func newRouted[V ctree.Value](part Partitioner) *routed[V] {
	gs := make([]aspen.GraphOf[V], part.Shards())
	for s := range gs {
		gs[s] = aspen.NewGraphOf[V](testParams())
	}
	return &routed[V]{part: part, gs: gs, views: make([]*aspen.FlatView[V], len(gs))}
}

// apply routes one batch by source and applies each shard's share.
func (r *routed[V]) apply(del bool, edges []aspen.EdgeOf[V]) {
	for s, sub := range Route(r.part, edges, EdgeSource[V]) {
		switch {
		case len(sub) == 0:
		case del:
			r.gs[s] = r.gs[s].DeleteEdges(sub)
		default:
			r.gs[s] = r.gs[s].InsertEdges(sub)
		}
	}
}

// stitch patches the flat view of every shard whose graph moved since the
// last stitch and stitches all views off that stitch; a shard that did not
// move passes its view on unchanged.
func (r *routed[V]) stitch() ligra.Graph {
	views := make([]ligra.Graph, len(r.gs))
	moved := make([]bool, len(r.gs))
	for s, g := range r.gs {
		v := aspen.PatchFlatSnapshot(r.views[s], g)
		moved[s] = v != r.views[s]
		r.views[s], views[s] = v, v
	}
	r.flat = Stitch(r.part, r.flat, views, moved)
	return r.flat
}

// applyBoth replays the schedule into a single-graph ground truth and into
// a routed graph over part, and returns both.
func applyBoth(part Partitioner, ops []op) (aspen.Graph, *routed[struct{}]) {
	single := aspen.NewGraph(testParams())
	r := newRouted[struct{}](part)
	for _, o := range ops {
		if o.del {
			single = single.DeleteEdges(o.edges)
		} else {
			single = single.InsertEdges(o.edges)
		}
		r.apply(o.del, o.edges)
	}
	return single, r
}

// checkStructure compares the sharded views against the ground truth at the
// graph-interface level: order, edge count, degrees, and adjacency lists.
func checkStructure(t *testing.T, g aspen.Graph, views ...ligra.Graph) {
	t.Helper()
	for vi, v := range views {
		if v.Order() != g.Order() {
			t.Fatalf("view %d: Order = %d, want %d", vi, v.Order(), g.Order())
		}
		if v.NumEdges() != g.NumEdges() {
			t.Fatalf("view %d: NumEdges = %d, want %d", vi, v.NumEdges(), g.NumEdges())
		}
		for u := 0; u < g.Order(); u++ {
			id := uint32(u)
			if v.Degree(id) != g.Degree(id) {
				t.Fatalf("view %d: Degree(%d) = %d, want %d", vi, id, v.Degree(id), g.Degree(id))
			}
			var want, got []uint32
			g.ForEachNeighbor(id, func(w uint32) bool { want = append(want, w); return true })
			v.ForEachNeighbor(id, func(w uint32) bool { got = append(got, w); return true })
			if !slices.Equal(got, want) {
				t.Fatalf("view %d: neighbors of %d differ: %v vs %v", vi, id, got, want)
			}
		}
	}
}

func approxEqual(t *testing.T, name string, got, want []float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > tol*(1+math.Abs(want[i])) {
			t.Fatalf("%s[%d] = %g, want %g", name, i, got[i], want[i])
		}
	}
}

// checkKernels runs the full unweighted kernel suite on each view and
// compares against the single-engine ground truth: deterministic kernels
// must be bit-identical, floating-point ones equal within rounding.
func checkKernels(t *testing.T, g aspen.Graph, views ...ligra.Graph) {
	t.Helper()
	srcs := []uint32{0, 1, 7, uint32(g.Order()) / 2}
	for vi, v := range views {
		tag := fmt.Sprintf("view %d", vi)
		for _, src := range srcs {
			if want, got := algos.BFS(g, src, false).Distances(), algos.BFS(v, src, false).Distances(); !slices.Equal(got, want) {
				t.Fatalf("%s: BFS(%d) distances differ", tag, src)
			}
		}
		if want, got := algos.ConnectedComponents(g), algos.ConnectedComponents(v); !slices.Equal(got, want) {
			t.Fatalf("%s: CC labels differ", tag)
		}
		if want, got := algos.KCore(g), algos.KCore(v); !slices.Equal(got, want) {
			t.Fatalf("%s: coreness differs", tag)
		}
		if want, got := algos.TriangleCount(g), algos.TriangleCount(v); got != want {
			t.Fatalf("%s: triangles = %d, want %d", tag, got, want)
		}
		if want, got := algos.MIS(g, 42), algos.MIS(v, 42); !slices.Equal(got, want) {
			t.Fatalf("%s: MIS differs", tag)
		}
		for _, src := range srcs[:2] {
			want, got := algos.TwoHop(g, src), algos.TwoHop(v, src)
			slices.Sort(want)
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: TwoHop(%d) differs", tag, src)
			}
		}
		approxEqual(t, tag+": PageRank", algos.PageRank(v, 1e-10, 30), algos.PageRank(g, 1e-10, 30), 1e-8)
		approxEqual(t, tag+": BC", algos.BC(v, 1, false), algos.BC(g, 1, false), 1e-9)
	}
}

func TestShardedMatchesSingleEngine(t *testing.T) {
	schedules := map[string][]op{
		"rmat":   rmatOps(10, 8, 1_500, 21),
		"random": randomOps(1<<10, 8, 1_200, 22),
	}
	for name, ops := range schedules {
		for _, part := range []Partitioner{
			NewRangePartitioner(2, 1<<10),
			NewRangePartitioner(4, 1<<10),
			NewHashPartitioner(3),
		} {
			t.Run(fmt.Sprintf("%s/%T-%d", name, part, part.Shards()), func(t *testing.T) {
				single, r := applyBoth(part, ops)
				flat := r.stitch()
				if _, ok := flat.(ligra.FlatGraph); !ok {
					t.Fatal("stitched flat view does not satisfy ligra.FlatGraph")
				}
				checkStructure(t, single, flat)
				checkKernels(t, single, flat)
			})
		}
	}
}

// TestShardedWeightedMatchesSingleEngine runs the weighted suite: SSSP on
// the stitched flat view against the single weighted graph, plus the
// unweighted kernels that weighted graphs also serve.
func TestShardedWeightedMatchesSingleEngine(t *testing.T) {
	gen := rmat.NewGenerator(10, 5)
	weightOf := func(i uint64) float32 { return 1 + float32(xhash.Mix64(i)%1000)/1000 }
	mkBatch := func(lo, hi uint64) []aspen.WeightedEdge {
		es := gen.Edges(lo, hi)
		out := make([]aspen.WeightedEdge, 0, 2*len(es))
		for j, e := range es {
			if e.Src == e.Dst {
				continue
			}
			w := weightOf(lo + uint64(j))
			out = append(out,
				aspen.WeightedEdge{Src: e.Src, Dst: e.Dst, Val: w},
				aspen.WeightedEdge{Src: e.Dst, Dst: e.Src, Val: w})
		}
		return out
	}
	for _, part := range []Partitioner{
		NewRangePartitioner(4, 1<<10),
		NewHashPartitioner(2),
	} {
		t.Run(fmt.Sprintf("%T-%d", part, part.Shards()), func(t *testing.T) {
			single := aspen.NewWeightedGraphWith(testParams())
			r := newRouted[float32](part)
			var pos uint64
			for i := 0; i < 6; i++ {
				batch := mkBatch(pos, pos+1_000)
				pos += 1_000
				single = single.InsertEdges(batch)
				r.apply(false, batch)
				if i == 3 { // delete a slice of the first batch
					del := mkBatch(0, 500)
					single = single.DeleteEdges(del)
					r.apply(true, del)
				}
			}
			flat, flatOK := r.stitch().(ligra.FlatWeightedGraph)
			if !flatOK {
				t.Fatal("weighted stitched flat view does not satisfy ligra.FlatWeightedGraph")
			}
			for _, src := range []uint32{0, 3, 200} {
				want := algos.SSSP(single, src)
				got := algos.SSSP(flat, src)
				if len(got) != len(want) {
					t.Fatalf("SSSP length %d vs %d", len(got), len(want))
				}
				for i := range want {
					wi, gi := float64(want[i]), float64(got[i])
					if math.IsInf(wi, 1) != math.IsInf(gi, 1) ||
						(!math.IsInf(wi, 1) && math.Abs(gi-wi) > 1e-5*(1+math.Abs(wi))) {
						t.Fatalf("SSSP(%d)[%d] = %g, want %g", src, i, gi, wi)
					}
				}
			}
			if want, got := algos.BFS(single, 1, false).Distances(), algos.BFS(flat, 1, false).Distances(); !slices.Equal(got, want) {
				t.Fatal("weighted sharded BFS differs from single engine")
			}
			if want, got := algos.ConnectedComponents(single), algos.ConnectedComponents(flat); !slices.Equal(got, want) {
				t.Fatal("weighted sharded CC differs from single engine")
			}
		})
	}
}
