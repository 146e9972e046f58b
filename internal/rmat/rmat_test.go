package rmat

import (
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/aspen"
	"repro/internal/parallel"
	"repro/internal/xhash"
)

// floatEdge is the float sampler Generator.Edge replaced: one draw of
// xhash.RNG.Float64 per level, the first quadrant whose running sum exceeds
// it wins. Generator.Edge must return its stream bit for bit.
func floatEdge(g Generator, i uint64) aspen.Edge {
	r := xhash.NewRNG(xhash.Seeded(g.Seed, i))
	var u, v uint32
	for level := g.Scale - 1; level >= 0; level-- {
		p := r.Float64()
		switch {
		case p < g.A:
		case p < g.A+g.B:
			v |= 1 << uint(level)
		case p < g.A+g.B+g.C:
			u |= 1 << uint(level)
		default:
			u |= 1 << uint(level)
			v |= 1 << uint(level)
		}
	}
	return aspen.Edge{Src: u, Dst: v}
}

// TestEdgeMatchesFloatSampler: the integer cuts give the float sampler's
// stream for the paper's parameters and for parameters that sum to one,
// leave a quadrant empty, exceed one, go negative or are NaN.
func TestEdgeMatchesFloatSampler(t *testing.T) {
	for _, c := range []struct {
		name string
		g    Generator
	}{
		{"paper-16", NewGenerator(16, 1)},
		{"paper-20", NewGenerator(20, 99)},
		{"uniform", Generator{Scale: 16, A: 0.25, B: 0.25, C: 0.25, Seed: 2}},
		{"graph500", Generator{Scale: 16, A: 0.57, B: 0.19, C: 0.19, Seed: 3}},
		{"b=0", Generator{Scale: 16, A: 0.5, B: 0, C: 0.2, Seed: 4}},
		{"a+b+c=1", Generator{Scale: 16, A: 0.5, B: 0.3, C: 0.2, Seed: 5}},
		{"a>1", Generator{Scale: 16, A: 1.5, B: 0.1, C: 0.1, Seed: 6}},
		{"negative", Generator{Scale: 16, A: 0.5, B: -0.2, C: 0.4, Seed: 7}},
		{"nan", Generator{Scale: 16, A: 0.5, B: math.NaN(), C: 0.1, Seed: 8}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var bad atomic.Uint64 // first mismatching index + 1
			parallel.ForGrain(2_000_000, 1<<14, func(i int) {
				if c.g.Edge(uint64(i)) != floatEdge(c.g, uint64(i)) {
					bad.CompareAndSwap(0, uint64(i)+1)
				}
			})
			if i := bad.Load(); i != 0 {
				t.Fatalf("edge %d: got %v, float sampler %v", i-1, c.g.Edge(i-1), floatEdge(c.g, i-1))
			}
		})
	}
}

// TestCutIsTheFloatBoundary: cut(t) is the first 53-bit m whose draw
// m / 2^53 is not below t. A random stream almost never draws the one m at
// a cut, so the boundary is checked here directly.
func TestCutIsTheFloatBoundary(t *testing.T) {
	const one = 1 << 53
	ts := []float64{0, math.Copysign(0, -1), 0.1, 0.5, 0.6, 0.7, 1.0 / 3, 0.25 + 0x1p-60,
		math.Nextafter(1, 0), 1, math.Nextafter(1, 2), 0x1p-54, 3 * 0x1p-55, 5e-324, 1e-300, -1e-300, -0.5,
		math.Inf(1), math.Inf(-1)}
	r := xhash.NewRNG(9)
	for range 10_000 {
		ts = append(ts, r.Float64(), math.Float64frombits(r.Next()))
	}
	for _, x := range ts {
		c := cut(x)
		if c > one || c > 0 && !(float64(c-1)/one < x) || c < one && float64(c)/one < x {
			t.Fatalf("cut(%v) = %d is not the first m with m/2^53 >= t", x, c)
		}
	}
	if c := cut(math.NaN()); c != 0 {
		t.Fatalf("cut(NaN) = %d, want 0: no draw is below NaN", c)
	}
}

// TestStreamGolden pins the stream itself: a hash folded over the first
// 2^20 edges equals the value the float sampler gave, on every
// architecture.
func TestStreamGolden(t *testing.T) {
	for _, c := range []struct {
		g    Generator
		want uint64
	}{
		{NewGenerator(16, 1), 0xe888a53bcf5cf3ad},
		{NewGenerator(16, 5521), 0x2cb7a476cfbe9b7b},
		{NewGenerator(20, 42), 0xe23c577045db622e},
	} {
		var h uint64
		for _, e := range c.g.Edges(0, 1<<20) {
			h = xhash.Mix64(h ^ (uint64(e.Src)<<32 | uint64(e.Dst)))
		}
		if h != c.want {
			t.Errorf("scale %d seed %d: stream hash %#x, want %#x", c.g.Scale, c.g.Seed, h, c.want)
		}
	}
}

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
