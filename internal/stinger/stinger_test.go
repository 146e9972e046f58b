package stinger

import (
	"testing"

	"repro/internal/algos"
	"repro/internal/aspen"
	"repro/internal/xhash"
)

func TestInsertDeleteBasics(t *testing.T) {
	g := New(10)
	if !g.InsertEdge(1, 2) {
		t.Fatal("first insert failed")
	}
	if g.InsertEdge(1, 2) {
		t.Fatal("duplicate insert reported success")
	}
	if g.NumEdges() != 1 || g.Degree(1) != 1 {
		t.Fatal("bookkeeping wrong after insert")
	}
	if !g.DeleteEdge(1, 2) {
		t.Fatal("delete failed")
	}
	if g.DeleteEdge(1, 2) {
		t.Fatal("double delete reported success")
	}
	if g.NumEdges() != 0 || g.Degree(1) != 0 {
		t.Fatal("bookkeeping wrong after delete")
	}
}

func TestTombstoneReuse(t *testing.T) {
	g := New(4)
	for v := uint32(0); v < 3; v++ {
		g.InsertEdge(3, v)
	}
	g.DeleteEdge(3, 1)
	before := g.MemoryBytes()
	g.InsertEdge(3, 1) // must reuse the tombstoned slot, not grow
	if g.MemoryBytes() != before {
		t.Fatal("tombstone slot not reused")
	}
	var nbrs []uint32
	g.ForEachNeighbor(3, func(v uint32) bool { nbrs = append(nbrs, v); return true })
	if len(nbrs) != 3 {
		t.Fatalf("neighbors = %v", nbrs)
	}
}

func TestBlockChaining(t *testing.T) {
	g := New(2)
	const deg = 5 * BlockSize
	for v := uint32(0); v < deg; v++ {
		g.InsertEdge(0, uint32(1000+v)%1) // self edges to vertex... use distinct targets
	}
	// The loop above collapses targets; rebuild properly.
	g = New(deg + 1)
	for v := uint32(1); v <= deg; v++ {
		g.InsertEdge(0, v)
	}
	if g.Degree(0) != deg {
		t.Fatalf("degree = %d", g.Degree(0))
	}
	seen := map[uint32]bool{}
	g.ForEachNeighbor(0, func(v uint32) bool { seen[v] = true; return true })
	if len(seen) != deg {
		t.Fatalf("enumerated %d neighbors", len(seen))
	}
}

func TestBatchModel(t *testing.T) {
	r := xhash.NewRNG(3)
	g := New(64)
	ref := map[uint64]bool{}
	var batch []aspen.Edge
	for i := 0; i < 2000; i++ {
		e := aspen.Edge{Src: uint32(r.Intn(64)), Dst: uint32(r.Intn(64))}
		batch = append(batch, e)
		ref[uint64(e.Src)<<32|uint64(e.Dst)] = true
	}
	g.InsertBatch(batch)
	if int(g.NumEdges()) != len(ref) {
		t.Fatalf("NumEdges = %d, want %d", g.NumEdges(), len(ref))
	}
	for k := range ref {
		u, v := uint32(k>>32), uint32(k)
		found := false
		g.ForEachNeighbor(u, func(x uint32) bool {
			if x == v {
				found = true
				return false
			}
			return true
		})
		if !found {
			t.Fatalf("missing edge (%d,%d)", u, v)
		}
	}
	g.DeleteBatch(batch)
	if g.NumEdges() != 0 {
		t.Fatalf("NumEdges after delete = %d", g.NumEdges())
	}
}

func TestBFSOverStinger(t *testing.T) {
	// The shared algorithm suite must run over the Stinger engine.
	g := New(6)
	for _, e := range []aspen.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}, {Src: 1, Dst: 2}, {Src: 2, Dst: 1}, {Src: 2, Dst: 3}, {Src: 3, Dst: 2}} {
		g.InsertEdge(e.Src, e.Dst)
	}
	res := algos.BFS(g, 0, true)
	d := res.Distances()
	want := []int32{0, 1, 2, 3, -1, -1}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("dist[%d] = %d, want %d", i, d[i], want[i])
		}
	}
}

func TestMemoryAccounting(t *testing.T) {
	g := New(100)
	base := g.MemoryBytes()
	if base == 0 {
		t.Fatal("vertex headers should cost memory")
	}
	g.InsertEdge(0, 1)
	if g.MemoryBytes() <= base {
		t.Fatal("block allocation not accounted")
	}
}

// TestResetEmpties: a reset graph reads and accounts as a new one, and an
// insert into it builds what it builds in a new graph.
func TestResetEmpties(t *testing.T) {
	g, fresh := New(100), New(100)
	for v := uint32(1); v < 40; v++ {
		g.InsertEdge(0, v)
		g.InsertEdge(v, 0)
	}
	g.Reset()
	if g.NumEdges() != 0 || g.Degree(0) != 0 || g.MemoryBytes() != fresh.MemoryBytes() {
		t.Fatalf("reset graph: %d edges, degree %d, %d bytes; a new one has 0, 0, %d",
			g.NumEdges(), g.Degree(0), g.MemoryBytes(), fresh.MemoryBytes())
	}
	batch := []aspen.Edge{{Src: 0, Dst: 5}, {Src: 5, Dst: 0}, {Src: 7, Dst: 8}}
	g.InsertBatch(batch)
	fresh.InsertBatch(batch)
	if g.NumEdges() != 3 || g.MemoryBytes() != fresh.MemoryBytes() || g.Degree(5) != 1 {
		t.Fatalf("insert after reset: %d edges, %d bytes; into a new graph: %d, %d",
			g.NumEdges(), g.MemoryBytes(), fresh.NumEdges(), fresh.MemoryBytes())
	}
}
