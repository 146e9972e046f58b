package shard

import (
	"testing"
	"time"

	"repro/internal/aspen"
	"repro/internal/ligra"
	"repro/internal/stream"
)

func TestClusterInsertDeleteVisibility(t *testing.T) {
	c := NewGraphCluster[struct{}](NewRangePartitioner(2, 100), testParams(), stream.Options{})
	defer c.Close()

	batch := aspen.MakeUndirected([]aspen.Edge{{Src: 10, Dst: 90}}) // crosses the shard boundary
	p, err := c.Insert(batch)
	if err != nil {
		t.Fatal(err)
	}
	p.Wait()
	tx := c.Begin()
	g := tx.Graph()
	if g.Degree(10) != 1 || g.Degree(90) != 1 {
		t.Fatalf("cross-shard edge not visible: deg(10)=%d deg(90)=%d", g.Degree(10), g.Degree(90))
	}
	// Each direction must live on its source's shard.
	if got := tx.Shard(c.part.Owner(10)).Degree(10); got != 1 {
		t.Fatalf("shard of 10 reports degree %d", got)
	}
	if got := tx.Shard(c.part.Owner(90)).Degree(90); got != 1 {
		t.Fatalf("shard of 90 reports degree %d", got)
	}
	tx.Close()

	p, err = c.Delete(batch)
	if err != nil {
		t.Fatal(err)
	}
	p.Wait()
	tx = c.Begin()
	if tx.Graph().Degree(10) != 0 || tx.Graph().Degree(90) != 0 {
		t.Fatal("deleted cross-shard edge still visible")
	}
	tx.Close()
}

func TestClusterStitchCache(t *testing.T) {
	c := NewGraphCluster[struct{}](NewRangePartitioner(2, 1<<8), testParams(), stream.Options{})
	defer c.Close()
	if _, err := c.Insert(aspen.MakeUndirected(randomEdges(500, 1<<8, 1))); err != nil {
		t.Fatal(err)
	}
	if err := c.Barrier(); err != nil {
		t.Fatal(err)
	}

	tx1 := c.Begin()
	f1 := tx1.Flat()
	if f1 == nil {
		t.Fatal("no stitched flat view")
	}
	tx2 := c.Begin()
	if f2 := tx2.Flat(); f2 != f1 {
		t.Fatal("same version vector produced a second stitched view")
	}
	st := c.Stats()
	if st.StitchBuilds != 1 || st.StitchHits != 1 {
		t.Fatalf("stitch builds/hits = %d/%d, want 1/1", st.StitchBuilds, st.StitchHits)
	}
	tx1.Close()
	tx2.Close()

	// A commit moves the vector: the next Flat must rebuild.
	if _, err := c.Insert(aspen.MakeUndirected(randomEdges(100, 1<<8, 2))); err != nil {
		t.Fatal(err)
	}
	if err := c.Barrier(); err != nil {
		t.Fatal(err)
	}
	tx3 := c.Begin()
	if f3 := tx3.Flat(); f3 == f1 {
		t.Fatal("stale stitched view served for a newer version vector")
	}
	tx3.Close()
	if st := c.Stats(); st.StitchBuilds != 2 {
		t.Fatalf("stitch builds = %d, want 2", st.StitchBuilds)
	}
}

func TestClusterErrClosedAfterClose(t *testing.T) {
	c := NewGraphCluster[struct{}](NewHashPartitioner(2), testParams(), stream.Options{})
	c.Close()
	if _, err := c.Insert(aspen.MakeUndirected([]aspen.Edge{{Src: 1, Dst: 2}})); err != stream.ErrClosed {
		t.Fatalf("Insert after Close: err = %v, want ErrClosed", err)
	}
}

func TestWeightedClusterViews(t *testing.T) {
	c := NewGraphCluster[float32](NewRangePartitioner(2, 1<<8), testParams(), stream.Options{})
	defer c.Close()
	batch := aspen.MakeUndirectedWeighted([]aspen.WeightedEdge{
		{Src: 3, Dst: 200, Val: 2.5},
		{Src: 7, Dst: 9, Val: 1.25},
	})
	if _, err := c.Insert(batch); err != nil {
		t.Fatal(err)
	}
	if err := c.Barrier(); err != nil {
		t.Fatal(err)
	}
	tx := c.Begin()
	defer tx.Close()

	wv, ok := tx.Ligra().(ligra.WeightedGraph)
	if !ok {
		t.Fatal("weighted tree view lacks ligra.WeightedGraph")
	}
	sum := float32(0)
	wv.ForEachNeighborW(3, func(_ uint32, w float32) bool { sum += w; return true })
	if sum != 2.5 {
		t.Fatalf("tree view weight sum = %g, want 2.5", sum)
	}
	fw, ok := tx.Flat().(ligra.FlatWeightedGraph)
	if !ok {
		t.Fatal("weighted flat view lacks ligra.FlatWeightedGraph")
	}
	got := float32(0)
	fw.ForEachNeighborW(200, func(v uint32, w float32) bool {
		if v == 3 {
			got = w
		}
		return true
	})
	if got != 2.5 {
		t.Fatalf("flat view weight(200,3) = %g, want 2.5", got)
	}
}

func TestTxPoolReuseIsClean(t *testing.T) {
	c := NewGraphCluster[struct{}](NewRangePartitioner(2, 1<<8), testParams(), stream.Options{})
	defer c.Close()
	if _, err := c.Insert(aspen.MakeUndirected(randomEdges(200, 1<<8, 3))); err != nil {
		t.Fatal(err)
	}
	if err := c.Barrier(); err != nil {
		t.Fatal(err)
	}
	tx := c.Begin()
	tx.Graph()
	tx.Flat()
	tx.Close()
	tx.Close() // idempotent: must not double-release or double-pool

	// A commit between pooled uses: the reused tx must see the new vector,
	// not leftovers.
	if _, err := c.Insert(aspen.MakeUndirected(randomEdges(50, 1<<8, 4))); err != nil {
		t.Fatal(err)
	}
	if err := c.Barrier(); err != nil {
		t.Fatal(err)
	}
	tx2 := c.Begin()
	defer tx2.Close()
	st := c.Stats()
	for s, stamp := range tx2.Stamps() {
		if stamp != st.PerShard[s].Stamp {
			t.Fatalf("reused tx pinned stamp %d on shard %d, latest is %d", stamp, s, st.PerShard[s].Stamp)
		}
	}
}

// TestFlatViewWarmForwards: the stitched view forwards Warm to each id's
// owning shard — under either partitioner the checksum is the sum of what
// the owners' views return id by id — stays total past the id space, and
// does not have the capability when no shard view has it.
func TestFlatViewWarmForwards(t *testing.T) {
	const span = 1 << 8
	edges := aspen.MakeUndirected(randomEdges(2000, span, 3))
	ids := []uint32{span + 5, 1 << 30}
	for u := uint32(0); u < span; u++ {
		ids = append(ids, (u*37)%span) // scattered: runs of one owner are short
	}
	for _, part := range []Partitioner{NewRangePartitioner(3, span), NewHashPartitioner(3)} {
		c := NewGraphClusterFrom(part, testParams(), edges, stream.Options{})
		tx := c.Begin()
		fv := tx.Flat().(ligra.Warmer)
		var want uint32
		for _, u := range ids {
			want += flatViewOf(tx.Flat()).views[part.Owner(u)].(ligra.Warmer).Warm([]uint32{u})
		}
		if got := fv.Warm(ids); got != want || want == 0 {
			t.Errorf("%T: Warm = %d, want %d (non-zero)", part, got, want)
		}
		if fv.Warm(nil) != 0 {
			t.Errorf("%T: Warm of no ids is not 0", part)
		}
		// The same shard graphs behind views without the capability.
		cold := make([]ligra.Graph, c.Shards())
		for s := range cold {
			cold[s] = tx.Shard(s)
		}
		if _, ok := Stitch(part, nil, cold, nil).(ligra.Warmer); ok {
			t.Errorf("%T: a stitch of views with nothing to warm must not offer to", part)
		}
		tx.Close()
		c.Close()
	}
}

// TestStitchedViewWaitsOnShardGate: commits land on shard 0 alone while a
// reader warms every id through the stitched view. The reader parks on
// shard 0's gate while shard 0 applies, and never on shard 1's, whose
// engine commits nothing.
func TestStitchedViewWaitsOnShardGate(t *testing.T) {
	const span = 1 << 10
	part := NewRangePartitioner(2, span)
	c := NewGraphClusterFrom(part, testParams(), aspen.MakeUndirected(randomEdges(4000, span, 5)), stream.Options{})
	defer c.Close()
	const half = span / 2
	if part.Owner(half-1) != 0 || part.Owner(half) != 1 {
		t.Fatal("ids not split at half the span")
	}

	stop := make(chan struct{})
	writerDone := make(chan error, 1)
	go func() {
		for i := uint64(0); ; i++ {
			select {
			case <-stop:
				writerDone <- nil
				return
			default:
			}
			if _, err := c.Insert(randomEdges(500, half, i)); err != nil { // both ends on shard 0
				writerDone <- err
				return
			}
		}
	}()

	ids := make([]uint32, span)
	for u := range ids {
		ids[u] = uint32(u)
	}
	tx := c.Begin()
	fv := tx.Flat().(ligra.Warmer)
	deadline := time.Now().Add(10 * time.Second)
	for c.Engine(0).Stats().ReaderWait == 0 && time.Now().Before(deadline) {
		for lo := 0; lo < span; lo += 16 {
			fv.Warm(ids[lo : lo+16])
		}
	}
	tx.Close()
	close(stop)
	if err := <-writerDone; err != nil {
		t.Fatal(err)
	}
	s0, s1 := c.Engine(0).Stats(), c.Engine(1).Stats()
	if s0.ReaderWait == 0 {
		t.Fatalf("no reader wait on shard 0 after %d commits (%d held)", s0.Commits, s0.PriorityHolds)
	}
	if s1.Commits != 0 || s1.PriorityHolds != 0 || s1.ReaderWait != 0 {
		t.Fatalf("shard 1: %d commits, %d holds, reader wait %v; want none", s1.Commits, s1.PriorityHolds, s1.ReaderWait)
	}
}
