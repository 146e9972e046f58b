package aspen

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/ctree"
	"repro/internal/xhash"
)

// insertVersion publishes vg's latest graph with edges inserted.
func insertVersion(vg *Versioned[Graph], edges []Edge) uint64 {
	return vg.Update(func(g Graph) Graph { return g.InsertEdges(edges) })
}

func TestAcquireReleaseAccounting(t *testing.T) {
	vg := NewVersioned(NewGraph(params()))
	v1 := vg.Acquire()
	v2 := vg.Acquire()
	if v1 != v2 {
		t.Fatal("concurrent acquires of one version should share it")
	}
	if vg.Release(v1) {
		t.Fatal("release should not report last while current")
	}
	insertVersion(vg, []Edge{{Src: 1, Dst: 2}}) // supersedes v1
	if !vg.Release(v2) {
		t.Fatal("releasing the last reference of a superseded version should report true")
	}
}

func TestUpdateVisibility(t *testing.T) {
	vg := NewVersioned(NewGraph(params()))
	before := vg.Acquire()
	stamp := insertVersion(vg, MakeUndirected([]Edge{{Src: 1, Dst: 2}}))
	after := vg.Acquire()
	if before.Graph.NumEdges() != 0 {
		t.Fatal("old snapshot observed the update")
	}
	if after.Graph.NumEdges() != 2 {
		t.Fatalf("new snapshot has %d edges, want 2", after.Graph.NumEdges())
	}
	if after.Stamp != stamp || vg.Current() != stamp {
		t.Fatal("stamps inconsistent")
	}
	vg.Release(before)
	vg.Release(after)
}

// TestSnapshotIsolation checks strict serializability from the reader side:
// a batch inserts a clique edge set atomically, so any snapshot must observe
// either none or all edges of a batch, never a partial batch.
func TestSnapshotIsolation(t *testing.T) {
	vg := NewVersioned(NewGraph(params()))
	const batches = 50
	const perBatch = 20
	var stop atomic.Bool
	var readerErr atomic.Value

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			v := vg.Acquire()
			m := v.Graph.NumEdges()
			if m%perBatch != 0 {
				readerErr.Store(m)
				stop.Store(true)
			}
			vg.Release(v)
		}
	}()
	go func() {
		defer wg.Done()
		r := xhash.NewRNG(7)
		for b := 0; b < batches && !stop.Load(); b++ {
			edges := make([]Edge, perBatch)
			for i := range edges {
				// Unique endpoints per batch so every batch adds
				// exactly perBatch directed edges.
				base := uint32(b*2*perBatch + 2*i)
				edges[i] = Edge{Src: base, Dst: base + 1}
			}
			_ = r
			insertVersion(vg, edges)
		}
		stop.Store(true)
	}()
	wg.Wait()
	if v := readerErr.Load(); v != nil {
		t.Fatalf("reader observed partial batch: %d edges", v)
	}
	final := vg.Acquire()
	if final.Graph.NumEdges() != batches*perBatch {
		t.Fatalf("final edges = %d, want %d", final.Graph.NumEdges(), batches*perBatch)
	}
	vg.Release(final)
}

func TestConcurrentWriters(t *testing.T) {
	vg := NewVersioned(NewGraph(ctree.DefaultParams()))
	const writers = 4
	const each = 25
	var wg sync.WaitGroup
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				u := uint32(w*1000 + i)
				insertVersion(vg, []Edge{{Src: u, Dst: u + 1}})
			}
		}(w)
	}
	wg.Wait()
	v := vg.Acquire()
	defer vg.Release(v)
	if got := v.Graph.NumEdges(); got != writers*each {
		t.Fatalf("NumEdges = %d, want %d", got, writers*each)
	}
	if vg.Current() != writers*each {
		t.Fatalf("stamp = %d, want %d", vg.Current(), writers*each)
	}
}

// TestRetireHookExactlyOnce drives acquires, releases and publishes from
// concurrent goroutines and asserts the epoch discipline: every superseded
// version retires exactly once, no version retires while a reader holds it,
// and at quiescence only the current version is live.
func TestRetireHookExactlyOnce(t *testing.T) {
	vg := NewVersioned(NewGraph(params()))
	var mu sync.Mutex
	retired := map[uint64]int{}
	vg.SetRetireHook(func(stamp uint64) {
		mu.Lock()
		retired[stamp]++
		mu.Unlock()
	})
	const updates = 200
	const readers = 4
	var wg sync.WaitGroup
	var stop atomic.Bool
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				v := vg.Acquire()
				mu.Lock()
				n := retired[v.Stamp]
				mu.Unlock()
				if n != 0 {
					t.Error("acquired a retired version")
					stop.Store(true)
				}
				vg.Release(v)
			}
		}()
	}
	for i := 0; i < updates && !stop.Load(); i++ {
		insertVersion(vg, []Edge{{Src: uint32(2 * i), Dst: uint32(2*i + 1)}})
	}
	stop.Store(true)
	wg.Wait()

	if live := vg.LiveVersions(); live != 1 {
		t.Fatalf("LiveVersions = %d at quiescence, want 1", live)
	}
	published := vg.Current() + 1 // stamps 0..Current
	if got := vg.RetiredVersions(); got != published-1 {
		t.Fatalf("RetiredVersions = %d, want %d", got, published-1)
	}
	mu.Lock()
	defer mu.Unlock()
	for stamp, n := range retired {
		if n != 1 {
			t.Fatalf("stamp %d retired %d times", stamp, n)
		}
	}
	if uint64(len(retired)) != published-1 {
		t.Fatalf("%d stamps retired, want %d", len(retired), published-1)
	}
}

// TestRetireClearsSnapshot checks that a retired version drops its snapshot
// reference (the memory-reclamation substitute documented in DESIGN.md).
func TestRetireClearsSnapshot(t *testing.T) {
	vg := NewVersioned(NewGraph(params()))
	insertVersion(vg, MakeUndirected([]Edge{{Src: 1, Dst: 2}}))
	v := vg.Acquire()
	if v.Graph.NumEdges() != 2 {
		t.Fatal("acquired snapshot incomplete")
	}
	insertVersion(vg, MakeUndirected([]Edge{{Src: 3, Dst: 4}})) // supersede v
	if !vg.Release(v) {
		t.Fatal("release of last reference should retire")
	}
	// The handle leaks past its release here only to observe reclamation.
	if v.Graph.NumVertices() != 0 {
		t.Fatal("retired version still references its snapshot")
	}
}

func TestVersionedWeightedGraph(t *testing.T) {
	vg := NewVersioned(NewWeightedGraph())
	before := vg.Acquire()
	stamp := vg.Update(func(g WeightedGraph) WeightedGraph {
		return g.InsertEdges([]WeightedEdge{{Src: 1, Dst: 2, Val: 0.5}})
	})
	after := vg.Acquire()
	if before.Graph.NumEdges() != 0 || after.Graph.NumEdges() != 1 {
		t.Fatal("weighted snapshot isolation violated")
	}
	if w, ok := after.Graph.Weight(1, 2); !ok || w != 0.5 {
		t.Fatalf("Weight(1,2) = %v,%v", w, ok)
	}
	if after.Stamp != stamp {
		t.Fatal("stamp mismatch")
	}
	vg.Release(before)
	vg.Release(after)
	vg.Update(func(g WeightedGraph) WeightedGraph {
		return g.DeleteEdges([]WeightedEdge{{Src: 1, Dst: 2}})
	})
	final := vg.Acquire()
	defer vg.Release(final)
	if final.Graph.NumEdges() != 0 {
		t.Fatal("delete not applied")
	}
}

func TestConcurrentFlatSnapshotDuringUpdates(t *testing.T) {
	vg := NewVersioned(NewGraph(params()))
	insertVersion(vg, MakeUndirected([]Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}}))
	var wg sync.WaitGroup
	wg.Add(2)
	var bad atomic.Bool
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			v := vg.Acquire()
			fs := BuildFlatSnapshot(v.Graph)
			if fs.NumEdges() != v.Graph.NumEdges() {
				bad.Store(true)
			}
			vg.Release(v)
		}
	}()
	go func() {
		defer wg.Done()
		for i := uint32(0); i < 50; i++ {
			insertVersion(vg, MakeUndirected([]Edge{{Src: i, Dst: i + 100}}))
		}
	}()
	wg.Wait()
	if bad.Load() {
		t.Fatal("flat snapshot disagreed with its version")
	}
}
