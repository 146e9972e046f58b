package algos

import (
	"sync/atomic"
	"testing"

	"repro/internal/aspen"
	"repro/internal/ligra"
	"repro/internal/rmat"
	"repro/internal/xhash"
)

// symWeight derives a deterministic symmetric weight for an undirected
// edge, so both directions of the symmetrized batch agree.
func symWeight(u, v uint32) float32 {
	lo, hi := u, v
	if lo > hi {
		lo, hi = hi, lo
	}
	return 0.5 + float32(xhash.Mix32(lo^hi*0x9e3779b9)%1000)/100
}

func weightedRMATGraph(scale int, m uint64, seed uint64) aspen.WeightedGraph {
	gen := rmat.NewGenerator(scale, seed)
	edges := gen.Edges(0, m)
	batch := make([]aspen.WeightedEdge, 0, 2*len(edges))
	for _, e := range edges {
		if e.Src == e.Dst {
			continue
		}
		w := symWeight(e.Src, e.Dst)
		batch = append(batch,
			aspen.WeightedEdge{Src: e.Src, Dst: e.Dst, Val: w},
			aspen.WeightedEdge{Src: e.Dst, Dst: e.Src, Val: w})
	}
	return aspen.NewWeightedGraph().InsertEdges(batch)
}

func distancesMatch(t *testing.T, got, want []float32, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", what, len(got), len(want))
	}
	for v := range got {
		d, r := got[v], want[v]
		if d == r {
			continue
		}
		// Float addition order differs between the parallel relaxation and
		// the sequential reference; allow tiny drift.
		diff := d - r
		if diff < 0 {
			diff = -diff
		}
		if diff > 1e-3*(1+r) {
			t.Fatalf("%s: dist[%d] = %v, want %v", what, v, d, r)
		}
	}
}

// TestSSSPMatchesDijkstraRMAT is the acceptance test: Bellman-Ford over
// the weighted EdgeMap must agree with the Dijkstra reference on rMAT
// inputs at several scales and sources.
func TestSSSPMatchesDijkstraRMAT(t *testing.T) {
	for _, cfg := range []struct {
		scale int
		m     uint64
		seed  uint64
	}{
		{8, 1 << 11, 1},
		{10, 1 << 13, 2},
		{12, 1 << 15, 3},
	} {
		g := weightedRMATGraph(cfg.scale, cfg.m, cfg.seed)
		for _, src := range []uint32{0, 1, 1 << (cfg.scale - 1)} {
			got := SSSP(g, src)
			want := DijkstraRef(g, src)
			distancesMatch(t, got, want, "rmat")
		}
	}
}

func TestSSSPSmallHandmade(t *testing.T) {
	// 0 --4-- 1 --3-- 2
	//  \             /
	//   10 -- 3 -- 2     (0-3 weight 10, 3-2 weight 2)
	batch := aspen.MakeUndirectedWeighted([]aspen.WeightedEdge{
		{Src: 0, Dst: 1, Val: 4},
		{Src: 1, Dst: 2, Val: 3},
		{Src: 0, Dst: 3, Val: 10},
		{Src: 2, Dst: 3, Val: 2},
	})
	g := aspen.NewWeightedGraph().InsertEdges(batch)
	dist := SSSP(g, 0)
	want := []float32{0, 4, 7, 9}
	for v, w := range want {
		if dist[v] != w {
			t.Fatalf("dist[%d] = %v, want %v", v, dist[v], w)
		}
	}
	// Unreachable vertices report +Inf.
	g2 := g.InsertEdges([]aspen.WeightedEdge{{Src: 7, Dst: 8, Val: 1}, {Src: 8, Dst: 7, Val: 1}})
	dist2 := SSSP(g2, 0)
	if dist2[7] != Inf || dist2[8] != Inf {
		t.Fatalf("disconnected component got finite distance: %v, %v", dist2[7], dist2[8])
	}
	if dist2[3] != 9 {
		t.Fatalf("dist2[3] = %v", dist2[3])
	}
}

// TestSSSPStampReclaim exercises the stamp-based visited array across many
// rounds: a long unit-weight chain forces one round per hop, and a heavy
// shortcut to the chain's tail makes the tail claimed in round 1 and then
// re-claimed (improved) in the final round — a CAS from a stale stamp many
// epochs old.
func TestSSSPStampReclaim(t *testing.T) {
	const k = 200
	var edges []aspen.WeightedEdge
	for i := uint32(0); i < k; i++ {
		edges = append(edges, aspen.WeightedEdge{Src: i, Dst: i + 1, Val: 1})
	}
	edges = append(edges, aspen.WeightedEdge{Src: 0, Dst: k, Val: 2 * k})
	g := aspen.NewWeightedGraph().InsertEdges(aspen.MakeUndirectedWeighted(edges))
	dist := SSSP(g, 0)
	for i := uint32(0); i <= k; i++ {
		if dist[i] != float32(i) {
			t.Fatalf("dist[%d] = %v, want %d", i, dist[i], i)
		}
	}
}

func TestSSSPNoDenseMatchesDense(t *testing.T) {
	// The direction-optimized and sparse-only traversals must agree; drive
	// the dense path by querying a hub-heavy graph from the hub.
	g := weightedRMATGraph(9, 1<<13, 9)
	got := SSSP(g, 0)
	want := DijkstraRef(g, 0)
	distancesMatch(t, got, want, "dense-vs-ref")
}

// TestWeightedEdgeMapVisitsAllEdges sanity-checks the weighted traversal
// primitive directly: one hop from a full frontier touches every edge once
// per direction.
func TestWeightedEdgeMapVisitsAllEdges(t *testing.T) {
	g := weightedRMATGraph(8, 1<<10, 4)
	n := g.Order()
	all := make([]uint32, 0, n)
	for v := 0; v < n; v++ {
		if g.Degree(uint32(v)) > 0 {
			all = append(all, uint32(v))
		}
	}
	var visited atomic.Int64
	ligra.WeightedEdgeMap(g, ligra.FromSparse(n, all),
		func(_, _ uint32, w float32) bool {
			if w <= 0 {
				t.Error("non-positive weight delivered")
			}
			visited.Add(1)
			return false
		},
		func(uint32) bool { return true },
		ligra.EdgeMapOpts{NoDense: true})
	if visited.Load() != int64(g.NumEdges()) {
		t.Fatalf("visited %d edges, want %d", visited.Load(), g.NumEdges())
	}
}
