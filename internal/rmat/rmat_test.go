package rmat

import (
	"testing"

	"repro/internal/aspen"
)

func TestGeneratorDeterministic(t *testing.T) {
	g := NewGenerator(12, 99)
	a := g.Edges(0, 1000)
	b := g.Edges(0, 1000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("generator not deterministic")
		}
	}
	if g.Edge(500) != a[500] {
		t.Fatal("indexed access disagrees with stream")
	}
}

func TestGeneratorRange(t *testing.T) {
	g := NewGenerator(8, 1)
	n := uint32(g.NumVertices())
	for _, e := range g.Edges(0, 5000) {
		if e.Src >= n || e.Dst >= n {
			t.Fatalf("edge (%d,%d) out of range %d", e.Src, e.Dst, n)
		}
	}
}

func TestRMATIsSkewed(t *testing.T) {
	// rMAT with a=0.5 concentrates mass on low ids: the max degree should
	// far exceed the average (power-law-ish skew).
	g := NewGenerator(12, 5)
	adj := g.Adjacency(40_000)
	maxDeg, total := 0, 0
	for _, nbrs := range adj {
		total += len(nbrs)
		if len(nbrs) > maxDeg {
			maxDeg = len(nbrs)
		}
	}
	avg := float64(total) / float64(len(adj))
	if float64(maxDeg) < 4*avg {
		t.Fatalf("max degree %d not skewed vs average %.1f", maxDeg, avg)
	}
}

func TestUniformEdges(t *testing.T) {
	u := Uniform{N: 100, Seed: 3}
	edges := u.Edges(0, 2000)
	counts := make([]int, 100)
	for _, e := range edges {
		if e.Src >= 100 || e.Dst >= 100 {
			t.Fatal("out of range")
		}
		counts[e.Src]++
	}
	// Roughly uniform: every vertex should appear as a source rarely more
	// than 5x the mean.
	for v, c := range counts {
		if c > 100 {
			t.Fatalf("vertex %d appears %d times", v, c)
		}
	}
}

func TestBuildAdjacencySymmetric(t *testing.T) {
	adj := BuildAdjacency(5, []aspen.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 2}, {Src: 0, Dst: 1}})
	if len(adj[0]) != 1 || adj[0][0] != 1 {
		t.Fatalf("adj[0] = %v", adj[0])
	}
	if len(adj[1]) != 2 {
		t.Fatalf("adj[1] = %v", adj[1])
	}
	if len(adj[2]) != 1 { // self-loop dropped, (1,2) symmetrized
		t.Fatalf("adj[2] = %v", adj[2])
	}
}
