package shard

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/algos"
	"repro/internal/aspen"
	"repro/internal/stream"
	"repro/internal/xhash"
)

// TestConcurrentWritersAndReaders is the multi-writer race surface: several
// goroutines submit insert batches through the cluster concurrently (so
// shard queues see interleaved producers) while readers pin version
// vectors, run a kernel on the stitched flat view, and release — across
// live commits and retirements. Insert-only batches commute, so the final
// barriered state must equal the single-engine union regardless of the
// interleaving. Run under -race in CI.
func TestConcurrentWritersAndReaders(t *testing.T) {
	const (
		writers      = 4
		batchesEach  = 12
		edgesPer     = 300
		idSpace      = 1 << 9
		readerRounds = 40
	)
	part := NewRangePartitioner(4, idSpace)
	c := NewGraphCluster[struct{}](part, testParams(), stream.Options{QueueCap: 16})
	defer c.Close()

	// Pre-generate every writer's batches so the reference union is
	// deterministic.
	all := make([][][]aspen.Edge, writers)
	for w := range all {
		all[w] = make([][]aspen.Edge, batchesEach)
		for b := range all[w] {
			all[w][b] = aspen.MakeUndirected(randomEdges(edgesPer, idSpace, uint64(w*1000+b)))
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, batch := range all[w] {
				if _, err := c.Insert(batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}

	var readerWG sync.WaitGroup
	stopReaders := make(chan struct{})
	for r := 0; r < 3; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			rng := xhash.NewRNG(uint64(r) + 99)
			for i := 0; i < readerRounds; i++ {
				select {
				case <-stopReaders:
					return
				default:
				}
				tx := c.Begin()
				stamps := slices.Clone(tx.Stamps())
				g := tx.Flat()
				if g.Order() > 0 {
					algos.BFS(g, rng.Uint32()%uint32(g.Order()), false)
				}
				// The pinned vector must still be the one we started with:
				// commits during the query must not move an open tx.
				if !slices.Equal(stamps, tx.Stamps()) {
					t.Error("version vector moved under an open transaction")
				}
				tx.Close()
			}
		}(r)
	}

	wg.Wait()
	if err := c.Barrier(); err != nil {
		t.Fatal(err)
	}
	close(stopReaders)
	readerWG.Wait()

	single := aspen.NewGraph(testParams())
	for _, wb := range all {
		for _, batch := range wb {
			single = single.InsertEdges(batch)
		}
	}
	tx := c.Begin()
	checkStructure(t, single, tx.Ligra(), tx.Flat())
	tx.Close()

	// With every transaction closed, each shard must drain to exactly its
	// current live version (retired snapshots released).
	st := c.Stats()
	if st.LiveVersions != int64(c.Shards()) {
		t.Fatalf("live versions = %d, want %d (one per shard)", st.LiveVersions, c.Shards())
	}
}

// TestVersionVectorPinning holds one transaction across later commits and
// checks it still answers from its original vector while new transactions
// see the new state.
func TestVersionVectorPinning(t *testing.T) {
	part := NewHashPartitioner(3)
	c := NewGraphCluster[struct{}](part, testParams(), stream.Options{})
	defer c.Close()

	first := aspen.MakeUndirected([]aspen.Edge{{Src: 1, Dst: 2}, {Src: 3, Dst: 4}})
	if _, err := c.Insert(first); err != nil {
		t.Fatal(err)
	}
	if err := c.Barrier(); err != nil {
		t.Fatal(err)
	}
	old := c.Begin()
	oldEdges := old.Graph().NumEdges()

	second := aspen.MakeUndirected([]aspen.Edge{{Src: 5, Dst: 6}, {Src: 7, Dst: 8}})
	if _, err := c.Insert(second); err != nil {
		t.Fatal(err)
	}
	if err := c.Barrier(); err != nil {
		t.Fatal(err)
	}

	if got := old.Graph().NumEdges(); got != oldEdges {
		t.Fatalf("pinned tx saw %d edges after a commit, want %d", got, oldEdges)
	}
	if old.Graph().Degree(5) != 0 {
		t.Fatal("pinned tx sees an edge committed after Begin")
	}
	fresh := c.Begin()
	if got := fresh.Graph().NumEdges(); got != oldEdges+uint64(len(second)) {
		t.Fatalf("fresh tx sees %d edges, want %d", got, oldEdges+uint64(len(second)))
	}
	if fresh.Graph().Degree(5) != 1 {
		t.Fatal("fresh tx missing the committed edge")
	}
	fresh.Close()
	old.Close()
}
