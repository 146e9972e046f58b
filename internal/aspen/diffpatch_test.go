package aspen

import (
	"testing"
	"unsafe"

	"repro/internal/ctree"
	"repro/internal/xhash"
)

// adjacencyOf enumerates the graph's vertex set with each vertex's neighbor
// list, via the vertex tree (so empty-but-present vertices are included).
func adjacencyOf(g Graph) map[uint32][]uint32 {
	adj := map[uint32][]uint32{}
	g.ForEachVertex(func(u uint32, et ctree.Set) bool {
		var ns []uint32
		et.ForEach(func(v uint32) bool { ns = append(ns, v); return true })
		adj[u] = ns
		return true
	})
	return adj
}

// TestDiffVersionsReplay applies DiffVersions' deltas to the old version's
// adjacency and requires the result to equal the new version's — the
// semantic contract of the vertex-level diff — and checks every delta's
// edge refinement against a set comparison of its two trees.
func TestDiffVersionsReplay(t *testing.T) {
	r := xhash.NewRNG(71)
	versions := []Graph{NewGraph(params()).InsertEdges(randomEdges(r, 2000, 400))}
	for step := 0; step < 8; step++ {
		cur := versions[len(versions)-1]
		if step%3 == 2 {
			versions = append(versions, cur.DeleteEdges(randomEdges(r, 500, 400)))
		} else {
			versions = append(versions, cur.InsertEdges(randomEdges(r, 300, 450)))
		}
	}
	for i := 0; i+1 < len(versions); i++ {
		old, cur := versions[i], versions[i+1]
		adj := adjacencyOf(old)
		if !DiffVersions(old, cur, func(d VertexDelta[struct{}]) bool {
			// Edge refinement must match the naive set difference.
			om, nm := map[uint32]bool{}, map[uint32]bool{}
			d.Old.ForEach(func(v uint32) bool { om[v] = true; return true })
			d.New.ForEach(func(v uint32) bool { nm[v] = true; return true })
			d.Edges(func(e uint32, kind ctree.DiffKind, _, _ struct{}) bool {
				switch kind {
				case DiffAdded:
					if om[e] || !nm[e] {
						t.Fatalf("vertex %d: edge %d misclassified added", d.ID, e)
					}
				case DiffRemoved:
					if !om[e] || nm[e] {
						t.Fatalf("vertex %d: edge %d misclassified removed", d.ID, e)
					}
				default:
					t.Fatalf("vertex %d: unweighted edge diff emitted %v", d.ID, kind)
				}
				delete(om, e)
				delete(nm, e)
				return true
			})
			for e := range om {
				if !nm[e] {
					t.Fatalf("vertex %d: removed edge %d not emitted", d.ID, e)
				}
			}
			// Replay the vertex delta.
			switch d.Kind {
			case DiffRemoved:
				delete(adj, d.ID)
			default:
				var ns []uint32
				d.New.ForEach(func(v uint32) bool { ns = append(ns, v); return true })
				adj[d.ID] = ns
			}
			return true
		}) {
			t.Fatal("DiffVersions stopped early")
		}
		want := adjacencyOf(cur)
		if len(adj) != len(want) {
			t.Fatalf("pair %d: replayed %d vertices, want %d", i, len(adj), len(want))
		}
		for u, ns := range want {
			got := adj[u]
			if len(got) != len(ns) {
				t.Fatalf("pair %d vertex %d: replayed degree %d, want %d", i, u, len(got), len(ns))
			}
			for x := range ns {
				if got[x] != ns[x] {
					t.Fatalf("pair %d vertex %d: neighbor %d mismatch", i, u, x)
				}
			}
		}
	}
}

// checkFlatAgainstGraph requires the flat view to agree with the snapshot
// on every observable: header, degrees, presence, neighbor enumeration.
func checkFlatAgainstGraph(t *testing.T, fs *FlatSnapshot, g Graph, ctx string) {
	t.Helper()
	if fs.Order() != g.Order() || fs.NumEdges() != g.NumEdges() {
		t.Fatalf("%s: header mismatch: flat (%d, %d) vs graph (%d, %d)",
			ctx, fs.Order(), fs.NumEdges(), g.Order(), g.NumEdges())
	}
	if len(fs.Degrees()) != g.Order() {
		t.Fatalf("%s: Degrees length = %d, want %d", ctx, len(fs.Degrees()), g.Order())
	}
	for u := uint32(0); int(u) < g.Order(); u++ {
		if fs.Degree(u) != g.Degree(u) {
			t.Fatalf("%s: degree mismatch at %d: %d vs %d", ctx, u, fs.Degree(u), g.Degree(u))
		}
		if fs.HasVertex(u) != g.HasVertex(u) {
			t.Fatalf("%s: presence mismatch at %d", ctx, u)
		}
		var a, b []uint32
		g.ForEachNeighbor(u, func(v uint32) bool { a = append(a, v); return true })
		fs.ForEachNeighbor(u, func(v uint32) bool { b = append(b, v); return true })
		if len(a) != len(b) {
			t.Fatalf("%s: neighbor count mismatch at %d", ctx, u)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: neighbor mismatch at %d", ctx, u)
			}
		}
	}
	if !fs.Current(g) {
		t.Fatalf("%s: view does not identify as current for its graph", ctx)
	}
}

// TestPatchFlatSnapshotDifferential chains patched views down a random
// insert/delete schedule and checks each against a fresh rebuild (and the
// graph itself) — the patched view must be observationally identical.
func TestPatchFlatSnapshotDifferential(t *testing.T) {
	r := xhash.NewRNG(72)
	g := NewGraph(params()).InsertEdges(MakeUndirected(randomEdges(r, 3000, 600)))
	patched := BuildFlatSnapshot(g)
	checkFlatAgainstGraph(t, patched, g, "initial build")
	for step := 0; step < 15; step++ {
		switch step % 4 {
		case 3:
			// Delete-heavy batch, sometimes emptying vertices (shrink path).
			g = g.DeleteEdges(MakeUndirected(randomEdges(r, 400, 600)))
		case 2:
			// Growing batch: extends the id space past the previous order.
			g = g.InsertEdges(MakeUndirected(randomEdges(r, 100, 600+step*40)))
		default:
			g = g.InsertEdges(MakeUndirected(randomEdges(r, 200, 600)))
		}
		patched = PatchFlatSnapshot(patched, g)
		checkFlatAgainstGraph(t, patched, g, "patched chain")
		rebuilt := BuildFlatSnapshot(g)
		if patched.MemoryBytes()+patched.SharedMemoryBytes() < rebuilt.MemoryBytes() {
			t.Fatalf("step %d: owned+shared (%d+%d) below full footprint %d",
				step, patched.MemoryBytes(), patched.SharedMemoryBytes(), rebuilt.MemoryBytes())
		}
	}
}

// TestPatchFlatSnapshotShrink exercises a shrinking id space: deleting the
// highest vertices' edges must drop Order and never read stale slots.
func TestPatchFlatSnapshotShrink(t *testing.T) {
	g := NewGraph(params()).InsertEdges(MakeUndirected([]Edge{{Src: 1, Dst: 2}, {Src: 3, Dst: 4000}, {Src: 5, Dst: 6}}))
	fs := BuildFlatSnapshot(g)
	g2 := g.DeleteEdgesGC(MakeUndirected([]Edge{{Src: 3, Dst: 4000}}))
	if g2.Order() >= g.Order() {
		t.Fatalf("setup: order did not shrink (%d -> %d)", g.Order(), g2.Order())
	}
	p := PatchFlatSnapshot(fs, g2)
	checkFlatAgainstGraph(t, p, g2, "shrunk")
	// And growing again from the shrunk patched view.
	g3 := g2.InsertEdges(MakeUndirected([]Edge{{Src: 7, Dst: 5000}}))
	checkFlatAgainstGraph(t, PatchFlatSnapshot(p, g3), g3, "regrown")
}

// TestPatchFlatSnapshotIdentity pins the trivial cases: nil prev falls back
// to a full build, an already-current prev is returned as-is.
func TestPatchFlatSnapshotIdentity(t *testing.T) {
	g := NewGraph(params()).InsertEdges(MakeUndirected([]Edge{{Src: 1, Dst: 2}, {Src: 2, Dst: 3}}))
	fs := PatchFlatSnapshot(nil, g)
	checkFlatAgainstGraph(t, fs, g, "nil prev")
	if again := PatchFlatSnapshot(fs, g); again != fs {
		t.Fatal("patching a current view did not return it unchanged")
	}
}

// TestPatchFlatSnapshotSharing verifies the ownership accounting: the pages
// belong to the graph, so a built and a patched view each own only their
// page table and degree array and alias every page of their version; and a
// small batch against a large graph leaves the patched view sharing all but
// the touched pages with its predecessor.
func TestPatchFlatSnapshotSharing(t *testing.T) {
	r := xhash.NewRNG(73)
	g := NewGraph(params()).InsertEdges(MakeUndirected(randomEdges(r, 40_000, 30_000)))
	built := BuildFlatSnapshot(g)
	// One tiny batch: a handful of touched pages.
	g2 := g.InsertEdges(MakeUndirected([]Edge{{Src: 10, Dst: 11}, {Src: 500, Dst: 501}}))
	p := PatchFlatSnapshot(built, g2)
	checkFlatAgainstGraph(t, p, g2, "small patch")
	rebuilt := BuildFlatSnapshot(g2)
	for _, c := range []struct {
		what string
		fv   *FlatSnapshot
		g    Graph
	}{{"built", built, g}, {"patched", p, g2}, {"rebuilt", rebuilt, g2}} {
		table, pages := uint64(len(c.fv.pages))*8+uint64(c.fv.Order())*4, uint64(c.g.vt.Size())*uint64(unsafe.Sizeof(page[struct{}]{}))
		if c.fv.MemoryBytes() != table || c.fv.SharedMemoryBytes() != pages {
			t.Fatalf("%s view owns %d and shares %d bytes, want the table and degrees %d and the graph's pages %d",
				c.what, c.fv.MemoryBytes(), c.fv.SharedMemoryBytes(), table, pages)
		}
	}
	same := 0
	for i := range p.pages {
		if p.pages[i] == built.pages[i] {
			same++
		}
		if p.pages[i] != rebuilt.pages[i] {
			t.Fatalf("page %d: the patched and rebuilt views point at different pages", i)
		}
	}
	if touched := len(p.pages) - same; touched == 0 || touched > 4 {
		t.Fatalf("patch re-pointed %d pages, want 1–4 (ids 10, 11, 500, 501)", touched)
	}
}

// TestPatchFlatWeightedSnapshot covers the weighted patch path, including
// weight-only changes (DiffChanged at both levels).
func TestPatchFlatWeightedSnapshot(t *testing.T) {
	r := xhash.NewRNG(74)
	g := NewWeightedGraph().InsertEdges(randomWeightedBatch(r, 4000, 500))
	patched := BuildFlatWeightedSnapshot(g)
	for step := 0; step < 10; step++ {
		if step%3 == 2 {
			g = g.DeleteEdges(randomWeightedBatch(r, 300, 500))
		} else {
			// Inserting over existing ids re-weights existing edges.
			g = g.InsertEdges(randomWeightedBatch(r, 250, 500))
		}
		patched = PatchFlatWeightedSnapshot(patched, g)
		if patched.Order() != g.Order() || patched.NumEdges() != g.NumEdges() {
			t.Fatalf("step %d: header mismatch", step)
		}
		for u := uint32(0); int(u) < g.Order(); u++ {
			if patched.Degree(u) != g.Degree(u) {
				t.Fatalf("step %d: degree mismatch at %d", step, u)
			}
			type nbr struct {
				v uint32
				w float32
			}
			var a, b []nbr
			g.ForEachNeighborW(u, func(v uint32, w float32) bool { a = append(a, nbr{v, w}); return true })
			patched.ForEachNeighborW(u, func(v uint32, w float32) bool { b = append(b, nbr{v, w}); return true })
			if len(a) != len(b) {
				t.Fatalf("step %d: neighbor count mismatch at %d", step, u)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("step %d: weighted neighbor mismatch at %d: %v vs %v", step, u, a[i], b[i])
				}
			}
		}
	}
}
