package ligra

import (
	"testing"
)

// flatCSR is a minimal FlatGraph over static CSR arrays, used to exercise
// the dense-direction scheduling without importing an engine package.
type flatCSR struct {
	offs []int
	nbrs []uint32
	degs []int32
}

func buildFlatCSR(adj [][]uint32) *flatCSR {
	g := &flatCSR{offs: make([]int, len(adj)+1), degs: make([]int32, len(adj))}
	for u, ns := range adj {
		g.offs[u+1] = g.offs[u] + len(ns)
		g.degs[u] = int32(len(ns))
		g.nbrs = append(g.nbrs, ns...)
	}
	return g
}

func (g *flatCSR) Order() int          { return len(g.degs) }
func (g *flatCSR) NumEdges() uint64    { return uint64(len(g.nbrs)) }
func (g *flatCSR) Degree(u uint32) int { return int(g.degs[u]) }
func (g *flatCSR) Degrees() []int32    { return g.degs }
func (g *flatCSR) ForEachNeighbor(u uint32, f func(v uint32) bool) {
	for _, v := range g.nbrs[g.offs[u]:g.offs[u+1]] {
		if !f(v) {
			return
		}
	}
}

// ringAdj builds a ring where every vertex additionally links to a hub
// cluster, giving a skewed degree profile: hubs carry ~n/h edges each.
func ringAdj(n, hubs int) [][]uint32 {
	adj := make([][]uint32, n)
	for u := 0; u < n; u++ {
		adj[u] = append(adj[u], uint32((u+1)%n), uint32((u+n-1)%n))
		h := uint32(u % hubs)
		if uint32(u) != h {
			adj[u] = append(adj[u], h)
			adj[h] = append(adj[h], uint32(u))
		}
	}
	return adj
}

func TestDenseGrainAdaptive(t *testing.T) {
	g := buildFlatCSR(ringAdj(1<<12, 8))
	denseGrainOverride = 0
	// Average degree here is ~4: blocks of denseGrainWork/5 slots, clamped.
	if grain, want := denseGrain(g, g.Order()), min(denseGrainWork/5, 4096); grain < want*9/10 || grain > want {
		t.Fatalf("grain %d, want about %d", grain, want)
	}
	dense := buildFlatCSR(make([][]uint32, 100))
	if hi := denseGrain(dense, 100); hi != 4096 { // m = 0: coarsest
		t.Fatalf("zero-edge graph grain = %d, want 4096 (coarsest)", hi)
	}
	clique := make([][]uint32, 1<<12)
	row := make([]uint32, 1<<12)
	for i := range row {
		row[i] = uint32(i)
	}
	for i := range clique {
		clique[i] = row
	}
	if lo := denseGrain(buildFlatCSR(clique), 1<<12); lo != 16 {
		t.Fatalf("clique grain = %d, want 16 (finest)", lo)
	}
	denseGrainOverride = 256
	if denseGrain(g, g.Order()) != 256 {
		t.Fatal("override ignored")
	}
	denseGrainOverride = 0
}

// TestDenseGrainSameResults: the grain is a scheduling knob only — dense
// EdgeMap results must be identical under any grain.
func TestDenseGrainSameResults(t *testing.T) {
	g := buildFlatCSR(ringAdj(1<<10, 4))
	frontier := FromSparse(g.Order(), func() []uint32 {
		ids := make([]uint32, g.Order())
		for i := range ids {
			ids[i] = uint32(i)
		}
		return ids
	}())
	run := func() []uint32 {
		out := EdgeMap(g, frontier,
			func(src, dst uint32) bool { return dst%3 == 0 },
			func(v uint32) bool { return true },
			EdgeMapOpts{})
		s := out.ToSparse().Sparse()
		return s
	}
	denseGrainOverride = 256
	want := run()
	for _, grain := range []int{16, 64, 1024, 4096, 0} {
		denseGrainOverride = grain
		got := run()
		if len(got) != len(want) {
			t.Fatalf("grain %d: %d targets, want %d", grain, len(got), len(want))
		}
		seen := map[uint32]bool{}
		for _, v := range want {
			seen[v] = true
		}
		for _, v := range got {
			if !seen[v] {
				t.Fatalf("grain %d: unexpected target %d", grain, v)
			}
		}
	}
	denseGrainOverride = 0
}

// BenchmarkEdgeMapDenseGrain shows why the dense grain adapts: a full-frontier
// dense EdgeMap under the historical fixed 256 grain versus the adaptive
// m/n-derived grain, on a skewed degree profile where equal-count blocks
// strand the hub block on one worker.
func BenchmarkEdgeMapDenseGrain(b *testing.B) {
	g := buildFlatCSR(ringAdj(1<<16, 16))
	ids := make([]uint32, g.Order())
	for i := range ids {
		ids[i] = uint32(i)
	}
	frontier := FromSparse(g.Order(), ids)
	for _, cfg := range []struct {
		name  string
		grain int
	}{{"fixed256", 256}, {"adaptive", 0}} {
		b.Run(cfg.name, func(b *testing.B) {
			denseGrainOverride = cfg.grain
			defer func() { denseGrainOverride = 0 }()
			if cfg.grain == 0 {
				b.Logf("adaptive grain = %d (m/n = %.1f)",
					denseGrain(g, g.Order()), float64(g.NumEdges())/float64(g.Order()))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				EdgeMap(g, frontier,
					func(src, dst uint32) bool { return true },
					func(v uint32) bool { return true },
					EdgeMapOpts{})
			}
			b.ReportMetric(float64(g.NumEdges())*float64(b.N)/b.Elapsed().Seconds(), "edges/sec")
		})
	}
}
