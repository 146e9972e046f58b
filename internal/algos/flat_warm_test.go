package algos_test

// This table lives in the external test package, beside the CC suite, because
// it imports stream, which reaches algos.

import (
	"math"
	"slices"
	"testing"

	"repro/internal/algos"
	"repro/internal/aspen"
	"repro/internal/ctree"
	"repro/internal/ligra"
	"repro/internal/rmat"
	"repro/internal/stream"
)

// coldFlat and coldWeighted are a flat view with every capability but the
// degree array (and the weights) hidden: kernels take the plain loop of
// ligra.Scan over the same adjacency.
type coldFlat struct{ ligra.FlatGraph }
type coldWeighted struct{ ligra.FlatWeightedGraph }

func hideWarm(t *testing.T, g ligra.Graph) ligra.Graph {
	t.Helper()
	if _, ok := g.(ligra.Warmer); !ok {
		t.Fatalf("%T does not have the Warm capability", g)
	}
	var cold ligra.Graph = coldFlat{g.(ligra.FlatGraph)}
	if wg, ok := g.(ligra.FlatWeightedGraph); ok {
		cold = coldWeighted{wg}
	}
	if _, ok := cold.(ligra.Warmer); ok {
		t.Fatalf("%T still has the Warm capability", cold)
	}
	return cold
}

// warmViews returns flat views of one rMAT edge stream taken two ways —
// "fresh", built in one call, and "aged", reached through 200 insert and
// delete batches with each view patched from the last — as an unweighted
// flat snapshot and a weighted one.
func warmViews(t *testing.T) map[string]ligra.Graph {
	t.Helper()
	const scale, preload, batch, batches = 10, 6_000, 40, 200
	gen := rmat.NewGenerator(scale, 17)
	mk := func(lo, hi uint64) []aspen.Edge {
		var es []aspen.Edge
		for _, e := range gen.Edges(lo, hi) {
			if e.Src != e.Dst {
				es = append(es, e)
			}
		}
		return aspen.MakeUndirected(es)
	}
	weigh := func(es []aspen.Edge) []aspen.WeightedEdge {
		ws := make([]aspen.WeightedEdge, len(es))
		for i, e := range es {
			lo, hi := min(e.Src, e.Dst), max(e.Src, e.Dst)
			ws[i] = aspen.WeightedEdge{Src: e.Src, Dst: e.Dst, Val: 1 + float32((lo*31+hi*17)%97)/8}
		}
		return ws
	}
	g := aspen.NewGraph(ctree.DefaultParams()).InsertEdges(mk(0, preload))
	wg := aspen.NewWeightedGraph().InsertEdges(weigh(mk(0, preload)))
	fs, fw := aspen.BuildFlatSnapshot(g), aspen.BuildFlatWeightedSnapshot(wg)
	next := stream.UpdateScheduleMix(preload, batch, 5, mk)
	for i := uint64(0); i < batches; i++ {
		del, es := next(i)
		if del {
			g, wg = g.DeleteEdges(es), wg.DeleteEdges(weigh(es))
		} else {
			g, wg = g.InsertEdges(es), wg.InsertEdges(weigh(es))
		}
		fs, fw = aspen.PatchFlatSnapshot(fs, g), aspen.PatchFlatWeightedSnapshot(fw, wg)
	}
	var final []aspen.Edge
	for u := 0; u < fs.Order(); u++ {
		fs.ForEachNeighbor(uint32(u), func(v uint32) bool {
			final = append(final, aspen.Edge{Src: uint32(u), Dst: v})
			return true
		})
	}
	return map[string]ligra.Graph{
		"aged/flat":      fs,
		"aged/weighted":  fw,
		"fresh/flat":     aspen.BuildFlatSnapshot(aspen.NewGraph(ctree.DefaultParams()).InsertEdges(final)),
		"fresh/weighted": aspen.BuildFlatWeightedSnapshot(aspen.NewWeightedGraph().InsertEdges(weigh(final))),
	}
}

func near[F float32 | float64](a, b []F, tol float64) bool {
	return slices.EqualFunc(a, b, func(x, y F) bool {
		return x == y || math.Abs(float64(x-y)) <= tol*(1+math.Abs(float64(y)))
	})
}

// TestKernelsSameWithAndWithoutWarm: warming adjacency heads reorders memory
// accesses and nothing else, so every kernel answers the same on a view and
// on that view with the capability hidden — built or patched, weighted or
// not.
func TestKernelsSameWithAndWithoutWarm(t *testing.T) {
	for name, g := range warmViews(t) {
		t.Run(name, func(t *testing.T) {
			cold := hideWarm(t, g)
			for _, src := range []uint32{0, 1, 77} {
				for _, noDense := range []bool{false, true} {
					if !slices.Equal(algos.BFS(g, src, noDense).Distances(), algos.BFS(cold, src, noDense).Distances()) {
						t.Errorf("BFS(src=%d, noDense=%v) differs", src, noDense)
					}
					if !near(algos.BC(g, src, noDense), algos.BC(cold, src, noDense), 1e-9) {
						t.Errorf("BC(src=%d, noDense=%v) differs", src, noDense)
					}
				}
			}
			if !slices.Equal(algos.ConnectedComponents(g), algos.ConnectedComponents(cold)) {
				t.Error("ConnectedComponents differs")
			}
			if !near(algos.PageRank(g, 1e-10, 30), algos.PageRank(cold, 1e-10, 30), 1e-12) {
				t.Error("PageRank differs")
			}
			if !slices.Equal(algos.KCore(g), algos.KCore(cold)) {
				t.Error("KCore differs")
			}
			if algos.TriangleCount(g) != algos.TriangleCount(cold) {
				t.Error("TriangleCount differs")
			}
			in := algos.MIS(g, 42)
			if !slices.Equal(in, algos.MIS(cold, 42)) {
				t.Error("MIS differs for one seed")
			}
			for u := range in {
				covered := in[u]
				g.ForEachNeighbor(uint32(u), func(v uint32) bool {
					if in[u] && in[v] {
						t.Fatalf("MIS holds both ends of edge (%d, %d)", u, v)
					}
					covered = covered || in[v]
					return true
				})
				if !covered {
					t.Fatalf("MIS is not maximal: %d and its neighbors are all outside", u)
				}
			}
			if wg, ok := g.(ligra.WeightedGraph); ok {
				for _, src := range []uint32{0, 3} {
					if !near(algos.SSSP(wg, src), algos.SSSP(cold.(ligra.WeightedGraph), src), 1e-4) {
						t.Errorf("SSSP(src=%d) differs", src)
					}
				}
			}
		})
	}
}
