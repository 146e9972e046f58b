package algos

import (
	"math"
	"slices"
	"testing"

	"repro/internal/aspen"
	"repro/internal/ctree"
	"repro/internal/ligra"
	"repro/internal/parallel"
	"repro/internal/rmat"
)

// rmatGraph builds a symmetrized unweighted rMAT graph (self-loops
// dropped) — the same input family the benchmark harness uses.
func rmatGraph(scale int, m, seed uint64) aspen.Graph {
	gen := rmat.NewGenerator(int(scale), seed)
	var batch []aspen.Edge
	for _, e := range gen.Edges(0, m) {
		if e.Src != e.Dst {
			batch = append(batch, e)
		}
	}
	return aspen.NewGraph(ctree.DefaultParams()).InsertEdges(aspen.MakeUndirected(batch))
}

// The flat view must be a drop-in for the tree snapshot under every global
// kernel: same answers, only the access path differs (O(1) array indexing
// vs O(log n) vertex-tree lookups). These are the differential tests the
// §5.1 routing in ligra is gated on.

func TestFlatMatchesTreeBFS(t *testing.T) {
	g := rmatGraph(10, 6_000, 42)
	fs := aspen.BuildFlatSnapshot(g)
	var _ ligra.FlatGraph = fs // the capability EdgeMap routes on
	for _, src := range []uint32{0, 1, 77, 555} {
		for _, noDense := range []bool{false, true} {
			want := BFS(g, src, noDense).Distances()
			got := BFS(fs, src, noDense).Distances()
			if !slices.Equal(got, want) {
				t.Fatalf("BFS(src=%d noDense=%v) differs between flat and tree", src, noDense)
			}
		}
	}
}

func TestFlatMatchesTreeCC(t *testing.T) {
	g := rmatGraph(10, 6_000, 43)
	fs := aspen.BuildFlatSnapshot(g)
	if !slices.Equal(ConnectedComponents(fs), ConnectedComponents(g)) {
		t.Fatal("CC labels differ between flat and tree")
	}
}

func TestFlatMatchesTreeBC(t *testing.T) {
	g := rmatGraph(9, 3_000, 44)
	fs := aspen.BuildFlatSnapshot(g)
	want := BC(g, 2, false)
	got := BC(fs, 2, false)
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-9*(1+math.Abs(want[v])) {
			t.Fatalf("BC[%d] = %g (flat) vs %g (tree)", v, got[v], want[v])
		}
	}
}

func TestFlatMatchesTreePageRank(t *testing.T) {
	g := rmatGraph(9, 3_000, 45)
	fs := aspen.BuildFlatSnapshot(g)
	want := PageRank(g, 1e-10, 50)
	got := PageRank(fs, 1e-10, 50)
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-8*(1+math.Abs(want[v])) {
			t.Fatalf("PageRank[%d] = %g (flat) vs %g (tree)", v, got[v], want[v])
		}
	}
}

func TestFlatMatchesTreeKCore(t *testing.T) {
	g := rmatGraph(10, 6_000, 46)
	fs := aspen.BuildFlatSnapshot(g)
	want := KCore(g)
	got := KCore(fs)
	if !slices.Equal(got, want) {
		t.Fatal("coreness differs between flat and tree")
	}
	if MaxCore(got) != MaxCore(want) {
		t.Fatal("max core differs between flat and tree")
	}
}

func TestFlatMatchesTreeTriangles(t *testing.T) {
	g := rmatGraph(9, 3_000, 47)
	fs := aspen.BuildFlatSnapshot(g)
	if got, want := TriangleCount(fs), TriangleCount(g); got != want {
		t.Fatalf("triangles = %d (flat) vs %d (tree)", got, want)
	}
}

func TestFlatMatchesTreeTwoHop(t *testing.T) {
	g := rmatGraph(9, 3_000, 48)
	fs := aspen.BuildFlatSnapshot(g)
	for _, src := range []uint32{0, 5, 100} {
		want := TwoHop(g, src)
		got := TwoHop(fs, src)
		slices.Sort(want)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("TwoHop(%d) differs between flat and tree", src)
		}
	}
}

func TestFlatMISValid(t *testing.T) {
	// MIS is randomized per round but fully determined by (graph, seed);
	// the flat result must be a valid MIS of the same graph, and equal to
	// the tree result since the kernel is deterministic for a fixed seed.
	g := rmatGraph(9, 3_000, 49)
	fs := aspen.BuildFlatSnapshot(g)
	got := MIS(fs, 42)
	want := MIS(g, 42)
	if !slices.Equal(got, want) {
		t.Fatal("MIS differs between flat and tree for the same seed")
	}
	for u := range got {
		if !got[u] {
			continue
		}
		fs.ForEachNeighbor(uint32(u), func(v uint32) bool {
			if got[v] {
				t.Fatalf("adjacent %d and %d both in MIS", u, v)
			}
			return true
		})
	}
}

func TestFlatWeightedMatchesTreeSSSP(t *testing.T) {
	wg := weightedRMATGraph(10, 6_000, 7)
	fw := aspen.BuildFlatWeightedSnapshot(wg)
	var _ ligra.FlatWeightedGraph = fw
	for _, src := range []uint32{0, 3, 200} {
		want := SSSP(wg, src)
		got := SSSP(fw, src)
		distancesMatch(t, got, want, "flat vs tree SSSP")
		distancesMatch(t, got, DijkstraRef(fw, src), "flat SSSP vs Dijkstra")
	}
}

func TestFlatWeightedMatchesTreeUnweightedKernels(t *testing.T) {
	// The weighted flat view also serves unweighted kernels (weights
	// dropped), exactly like the weighted tree graph does.
	wg := weightedRMATGraph(9, 3_000, 8)
	fw := aspen.BuildFlatWeightedSnapshot(wg)
	if !slices.Equal(BFS(fw, 1, false).Distances(), BFS(wg, 1, false).Distances()) {
		t.Fatal("BFS differs between weighted flat and weighted tree")
	}
	if !slices.Equal(ConnectedComponents(fw), ConnectedComponents(wg)) {
		t.Fatal("CC differs between weighted flat and weighted tree")
	}
}

// TestFlatKernelsAllocateByBlock: BFS and ConnectedComponents build their
// neighbor callbacks once per parallel block, so a run over a flat view
// allocates in proportion to rounds × blocks — a few hundred objects on this
// graph — where a closure per visited vertex costs at least n (17 662 and
// 122 913 before the per-block mapper and the union-find kernel).
func TestFlatKernelsAllocateByBlock(t *testing.T) {
	old := parallel.Procs
	parallel.Procs = 4
	defer func() { parallel.Procs = old }()
	fs := aspen.BuildFlatSnapshot(rmatGraph(14, 150_000, 1))
	limit := float64(fs.Order() / 32)
	if a := testing.AllocsPerRun(5, func() { BFS(fs, 0, false) }); a > limit {
		t.Errorf("BFS allocates %.0f objects per run on %d vertices, want at most %.0f", a, fs.Order(), limit)
	}
	if a := testing.AllocsPerRun(5, func() { ConnectedComponents(fs) }); a > limit {
		t.Errorf("ConnectedComponents allocates %.0f objects per run on %d vertices, want at most %.0f", a, fs.Order(), limit)
	}
}
