package stream

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/algos"
	"repro/internal/aspen"
	"repro/internal/ctree"
	"repro/internal/ligra"
	"repro/internal/rmat"
)

func flatTestEngine(tb testing.TB, opts Options) *Engine[aspen.Graph, aspen.Edge] {
	tb.Helper()
	gen := rmat.NewGenerator(10, 7)
	g := aspen.NewGraph(ctree.DefaultParams()).InsertEdges(aspen.MakeUndirected(gen.Edges(0, 4_000)))
	return NewGraphEngine(g, opts)
}

// TestTxFlatCachedPerVersion: one build per version, shared by every
// transaction pinning it, dropped when the version retires.
func TestTxFlatCachedPerVersion(t *testing.T) {
	e := flatTestEngine(t, Options{})
	defer e.Close()

	tx1 := e.Begin()
	v1 := tx1.Flat()
	if _, ok := v1.(ligra.FlatGraph); !ok {
		t.Fatal("Flat view should satisfy ligra.FlatGraph")
	}
	tx2 := e.Begin()
	v2 := tx2.Flat()
	if v1 != v2 {
		t.Fatal("transactions on the same version must share one flat view")
	}
	if st := e.Stats(); st.FlatBuilds != 1 || st.FlatHits != 1 {
		t.Fatalf("builds=%d hits=%d, want 1/1", st.FlatBuilds, st.FlatHits)
	}
	tx1.Close()
	tx2.Close()

	// Commit: version 0 retires (no readers left) and its view is evicted.
	gen := rmat.NewGenerator(10, 8)
	p, err := e.Insert(aspen.MakeUndirected(gen.Edges(0, 500)))
	if err != nil {
		t.Fatal(err)
	}
	p.Wait()
	if st := e.Stats(); st.FlatCached != 0 {
		t.Fatalf("retired version's view still cached (%d entries)", st.FlatCached)
	}

	tx3 := e.Begin()
	defer tx3.Close()
	v3 := tx3.Flat()
	if v3 == v1 {
		t.Fatal("new version must get a fresh flat view")
	}
	st := e.Stats()
	if st.FlatBuilds != 2 || st.FlatCached != 1 {
		t.Fatalf("builds=%d cached=%d, want 2/1", st.FlatBuilds, st.FlatCached)
	}
	// The view answers for the pinned version even while newer commits land.
	if v3.NumEdges() != tx3.Graph().NumEdges() {
		t.Fatal("flat view disagrees with its pinned snapshot")
	}
}

// TestTxFlatFallback: an engine without a registered flatten serves the
// tree snapshot from Flat.
func TestTxFlatFallback(t *testing.T) {
	g := aspen.NewGraph(ctree.DefaultParams()).InsertEdges([]aspen.Edge{{Src: 1, Dst: 2}, {Src: 2, Dst: 1}})
	e := New(g,
		func(g aspen.Graph, b []aspen.Edge) aspen.Graph { return g.InsertEdges(b) },
		func(g aspen.Graph, b []aspen.Edge) aspen.Graph { return g.DeleteEdges(b) },
		Options{})
	defer e.Close()
	tx := e.Begin()
	defer tx.Close()
	if tx.Flat().NumEdges() != tx.Graph().NumEdges() {
		t.Fatal("fallback Flat must serve the tree snapshot")
	}
	if st := e.Stats(); st.FlatBuilds != 0 {
		t.Fatal("no flatten registered, nothing should build")
	}
}

// TestPrebuildFlat: with the knob on, the ingest loop builds the view on
// commit, so the first reader of the new version is a cache hit.
func TestPrebuildFlat(t *testing.T) {
	e := flatTestEngine(t, Options{PrebuildFlat: true})
	defer e.Close()
	gen := rmat.NewGenerator(10, 9)
	p, err := e.Insert(aspen.MakeUndirected(gen.Edges(0, 500)))
	if err != nil {
		t.Fatal(err)
	}
	p.Wait()
	if st := e.Stats(); st.FlatBuilds != 1 {
		t.Fatalf("builds=%d, want the commit-time build", st.FlatBuilds)
	}
	tx := e.Begin()
	defer tx.Close()
	tx.Flat()
	st := e.Stats()
	if st.FlatBuilds != 1 || st.FlatHits != 1 {
		t.Fatalf("builds=%d hits=%d, want prebuilt view served from cache", st.FlatBuilds, st.FlatHits)
	}
}

// TestWeightedTxFlat: the weighted engine's view satisfies the weighted
// flat capability and agrees with the tree snapshot under SSSP.
func TestWeightedTxFlat(t *testing.T) {
	gen := rmat.NewGenerator(9, 11)
	var batch []aspen.WeightedEdge
	for i, ed := range gen.Edges(0, 2_000) {
		w := 1 + float32(i%7)
		batch = append(batch,
			aspen.WeightedEdge{Src: ed.Src, Dst: ed.Dst, Val: w},
			aspen.WeightedEdge{Src: ed.Dst, Dst: ed.Src, Val: w})
	}
	e := NewWeightedEngine(aspen.NewWeightedGraph().InsertEdges(batch), Options{})
	defer e.Close()
	tx := e.Begin()
	defer tx.Close()
	fw, ok := tx.Flat().(ligra.FlatWeightedGraph)
	if !ok {
		t.Fatal("weighted Flat view should satisfy ligra.FlatWeightedGraph")
	}
	got := algos.SSSP(fw, 0)
	want := algos.SSSP(tx.Graph(), 0)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("SSSP[%d] = %v (flat) vs %v (tree)", v, got[v], want[v])
		}
	}
}

// TestFlatDebugCatchesCrossVersionView proves the aspendebug gate is real:
// sabotage the cache by seeding a new version's slot with an older
// version's view, and the next Flat must panic (MustCurrent) instead of
// silently answering for the wrong snapshot. Skipped in release builds,
// where the assertion compiles away.
func TestFlatDebugCatchesCrossVersionView(t *testing.T) {
	if !flatDebug {
		t.Skip("requires -tags aspendebug")
	}
	e := flatTestEngine(t, Options{})
	defer e.Close()
	tx0 := e.Begin()
	stale := tx0.Flat()
	tx0.Close()
	gen := rmat.NewGenerator(10, 13)
	p, err := e.Insert(aspen.MakeUndirected(gen.Edges(0, 100)))
	if err != nil {
		t.Fatal(err)
	}
	stamp := p.Wait()
	entry := &flatEntry{}
	entry.once.Do(func() { entry.view = stale })
	e.flat.mu.Lock()
	if e.flat.m == nil {
		e.flat.m = map[uint64]*flatEntry{}
	}
	e.flat.m[stamp] = entry
	e.flat.mu.Unlock()
	tx := e.Begin()
	defer tx.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("cross-version cached view was not caught by the aspendebug assert")
		}
	}()
	tx.Flat()
}

// TestConcurrentFlatSharedUnderCommits is the satellite-(c) race test:
// many readers share per-version cached flat views while the writer
// commits and versions retire underneath them. Run under -race in CI; the
// invariant checked here is "at most one build per published version" and
// full cache drain once every reader is done.
func TestConcurrentFlatSharedUnderCommits(t *testing.T) {
	e := flatTestEngine(t, Options{})
	gen := rmat.NewGenerator(10, 12)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				tx := e.Begin()
				fg := tx.Flat()
				algos.BFS(fg, uint32(i%1024), false)
				if fg.NumEdges() != tx.Graph().NumEdges() {
					t.Error("flat view diverged from pinned snapshot")
				}
				tx.Close()
			}
		}(r)
	}
	pos := uint64(4_000)
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		p, err := e.Insert(aspen.MakeUndirected(gen.Edges(pos, pos+200)))
		if err != nil {
			t.Fatal(err)
		}
		p.Wait()
		pos += 200
	}
	stop.Store(true)
	wg.Wait()
	st := e.Stats()
	e.Close()
	if st.FlatBuilds > st.Stamp+1 {
		t.Fatalf("more flat builds (%d) than versions (%d): cache not shared", st.FlatBuilds, st.Stamp+1)
	}
	if st.LiveVersions != 1 {
		t.Fatalf("live versions = %d after drain, want 1", st.LiveVersions)
	}
	if final := e.Stats(); final.FlatCached > 1 {
		t.Fatalf("cache holds %d entries after drain, want ≤ 1", final.FlatCached)
	}
}
