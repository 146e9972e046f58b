package stream

import (
	"maps"
	"slices"
	"testing"
	"time"

	"repro/internal/algos"
	"repro/internal/aspen"
	"repro/internal/ctree"
	"repro/internal/xhash"
)

// TestWindowSlide is the sliding-window acceptance test. A time window of
// width W is kept over an edge stream by submitting, at each slide, the
// slide's new edges and then the edges that expired; each edge's payload
// is its insertion time. On an in-memory and a durable engine, both driven
// through Store, every pin must hold only edges stamped in
// [now − W − slide, now], and the standing connectivity must equal
// ConnectedComponents on the pinned graph. With -v it logs the slide
// latency (submit → visible) and how many vertices a delete batch made
// IncrementalCC re-verify (DESIGN.md "Sliding windows").
func TestWindowSlide(t *testing.T) {
	p := ctree.DefaultParams()
	t.Run("memory", func(t *testing.T) {
		e := NewGraphEngine(aspen.NewGraphOf[uint64](p), Options{})
		defer e.Close()
		slideWindow(t, e)
	})
	t.Run("durable", func(t *testing.T) {
		dir := t.TempDir()
		e, err := RecoverGraphEngineOf[uint64](p, Options{}, Durability{Dir: dir, CheckpointEvery: 16})
		if err != nil {
			t.Fatal(err)
		}
		last := slideWindow(t, e)
		e.Close()
		if err := e.Err(); err != nil {
			t.Fatal(err)
		}
		g, _, err := LoadGraph[uint64](p, dir)
		if err != nil {
			t.Fatal(err)
		}
		if !g.Equal(last) {
			t.Fatal("the recovered window differs from the last pinned one")
		}
	})
}

// slideWindow runs the window over e and returns the last pinned graph.
func slideWindow(t *testing.T, e *Engine[aspen.GraphOf[uint64], aspen.EdgeOf[uint64]]) aspen.GraphOf[uint64] {
	const (
		ids    = 1 << 12 // vertex-id space
		per    = 500     // distinct undirected edges a slide inserts
		slide  = 10      // time a slide advances
		window = 8 * slide
		slides = 24
	)
	cc := AttachGraphIncrementalCC(e)
	s := e.Store()
	rng := xhash.NewRNG(17)
	used := map[[2]uint32]bool{}
	var live [][]aspen.EdgeOf[uint64] // inserted batches, oldest first
	var last aspen.GraphOf[uint64]
	// check pins the store and holds the pin to the window and to the
	// standing connectivity; the writer is quiet, so the standing structure
	// is at the pinned version.
	check := func(now uint64) {
		t.Helper()
		snap, err := s.Pin()
		if err != nil {
			t.Fatal(err)
		}
		defer snap.Close()
		g := snap.Tree().(aspen.GraphOf[uint64])
		for u := range uint32(g.Order()) {
			g.ForEachNeighborW(u, func(v uint32, at uint64) bool {
				if at+window+slide < now || at > now {
					t.Fatalf("now %d: edge %d-%d stamped %d, outside [now-W-slide, now]", now, u, v, at)
				}
				return true
			})
		}
		want := algos.ConnectedComponents(g)
		if got := cc.Labels(len(want)); !slices.Equal(got, want) {
			t.Fatalf("now %d: standing connectivity differs from ConnectedComponents on the pinned graph", now)
		}
		last = g
	}
	submit := func(del bool, edges []aspen.EdgeOf[uint64]) time.Duration {
		t.Helper()
		t0 := time.Now()
		if err := s.Submit(del, edges); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		return time.Since(t0)
	}
	var lat []time.Duration
	var reverified []uint64
	for i := range uint64(slides) {
		now := (i + 1) * slide
		batch := make([]aspen.EdgeOf[uint64], 0, per)
		for len(batch) < per {
			u, v := rng.Uint32()%ids, rng.Uint32()%ids
			k := [2]uint32{min(u, v), max(u, v)}
			if u == v || used[k] {
				continue
			}
			used[k] = true
			batch = append(batch, aspen.EdgeOf[uint64]{Src: u, Dst: v, Val: now - uint64(len(batch)%slide)})
		}
		batch = aspen.MakeUndirected(batch)
		live = append(live, batch)
		d := submit(false, batch)
		check(now)
		// A whole slide expires at once: its stamps lie in (now' − slide, now'].
		var expired []aspen.EdgeOf[uint64]
		for len(live) > 0 && live[0][0].Val+window <= now {
			expired = append(expired, live[0]...)
			live = live[1:]
		}
		before := cc.Stats().Reverified
		d += submit(true, expired)
		check(now)
		if len(expired) > 0 {
			lat = append(lat, d)
			reverified = append(reverified, cc.Stats().Reverified-before)
		}
	}
	if len(lat) == 0 {
		t.Fatal("no slide expired any edge")
	}
	giant := map[uint32]int{}
	for _, l := range algos.ConnectedComponents(last) {
		giant[l]++
	}
	slices.Sort(lat)
	slices.Sort(reverified)
	t.Logf("%d slides of %d edges, window %d slides: slide latency p50 %v max %v; reverified per expiry p50 %d max %d of %d vertices (giant component %d)",
		slides, per, window/slide, lat[len(lat)/2], lat[len(lat)-1],
		reverified[len(reverified)/2], reverified[len(reverified)-1], last.Order(), slices.Max(slices.Collect(maps.Values(giant))))
	return last
}
