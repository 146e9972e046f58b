package remote

import (
	"fmt"
	"net"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/aspen"
	"repro/internal/ligra"
	"repro/internal/rmat"
	"repro/internal/shard"
	"repro/internal/stream"
	"repro/internal/xhash"
)

// startWeightedServers is startServers for in-memory weighted shards.
func startWeightedServers(t testing.TB, part shard.Partitioner) []string {
	t.Helper()
	addrs := make([]string, part.Shards())
	for s := range addrs {
		eng := stream.NewWeightedEngine(aspen.NewWeightedGraphWith(testParams()), stream.Options{})
		srv := NewWeightedServer(eng, testParams(), "", s, len(addrs))
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close(); eng.Close() })
		addrs[s] = ln.Addr().String()
	}
	return addrs
}

// adjacency of one view, copied out: what a reader of it would see.
type viewCopy struct {
	order int
	m     uint64
	degs  []int
	nbrs  [][]uint32
	wts   [][]float32
}

func copyView(g ligra.Graph) viewCopy {
	c := viewCopy{order: g.Order(), m: g.NumEdges()}
	wg, weighted := g.(ligra.WeightedGraph)
	for u := 0; u < c.order; u++ {
		var ns []uint32
		var ws []float32
		if weighted {
			wg.ForEachNeighborW(uint32(u), func(w uint32, wt float32) bool {
				ns, ws = append(ns, w), append(ws, wt)
				return true
			})
		} else {
			g.ForEachNeighbor(uint32(u), func(w uint32) bool { ns = append(ns, w); return true })
		}
		c.degs = append(c.degs, g.Degree(uint32(u)))
		c.nbrs, c.wts = append(c.nbrs, ns), append(c.wts, ws)
	}
	return c
}

// diff names the first difference between two views, "" when equal.
func (c viewCopy) diff(o viewCopy) string {
	if c.order != o.order || c.m != o.m {
		return fmt.Sprintf("order/m %d/%d vs %d/%d", c.order, c.m, o.order, o.m)
	}
	for u := range c.nbrs {
		if c.degs[u] != o.degs[u] || c.degs[u] != len(c.nbrs[u]) {
			return fmt.Sprintf("vertex %d: degree %d (list %d) vs %d", u, c.degs[u], len(c.nbrs[u]), o.degs[u])
		}
		if !slices.Equal(c.nbrs[u], o.nbrs[u]) {
			return fmt.Sprintf("vertex %d: neighbors %v vs %v", u, c.nbrs[u], o.nbrs[u])
		}
		if !slices.Equal(c.wts[u], o.wts[u]) {
			return fmt.Sprintf("vertex %d: weights %v vs %v", u, c.wts[u], o.wts[u])
		}
	}
	return ""
}

// deltaStep is one batch of the differential schedule, as undirected pairs;
// w seeds the weights of a weighted run.
type deltaStep struct {
	del   bool
	pairs [][2]uint32
	w     uint64
}

// deltaSchedule is the seeded schedule the issue names: random inserts over
// an id space that keeps growing (so order grows under the held view),
// deletes of edges that exist, a pendant vertex that is attached and then
// emptied again, a new highest id, a re-insert of old edges that only
// changes weights, and one batch too large to be worth a delta.
func deltaSchedule(seed uint64) []deltaStep {
	rng := xhash.NewRNG(seed)
	var live [][2]uint32
	random := func(n int, space uint32) [][2]uint32 {
		var out [][2]uint32
		for len(out) < n {
			if u, v := rng.Uint32()%space, rng.Uint32()%space; u != v {
				out = append(out, [2]uint32{u, v})
			}
		}
		return out
	}
	steps := []deltaStep{{pairs: random(700, 300)}}
	live = append(live, steps[0].pairs...)
	for i := 1; i <= 28; i++ {
		st := deltaStep{w: uint64(i)}
		switch {
		case i == 9:
			st.pairs = [][2]uint32{{400, 5}} // a pendant vertex, alone at the top of the id space
		case i == 10:
			st.del, st.pairs = true, [][2]uint32{{400, 5}} // ...emptied again
		case i == 17:
			st.pairs = [][2]uint32{{511, 3}, {510, 511}} // the partitioner's last id
		case i == 21:
			st.pairs = slices.Clone(live[:60]) // weighted: same edges, new weights
		case i == 25:
			st.pairs = random(600, 460) // more than a quarter of either shard: too large for a delta
			live = append(live, st.pairs...)
		case i%4 == 3:
			st.del = true
			for j := 0; j < 40; j++ {
				st.pairs = append(st.pairs, live[rng.Uint32()%uint32(len(live))])
			}
		default:
			st.pairs = random(50, uint32(300+6*i))
			live = append(live, st.pairs...)
		}
		steps = append(steps, st)
	}
	return steps
}

func (st deltaStep) edges() []aspen.Edge {
	var out []aspen.Edge
	for _, p := range st.pairs {
		out = append(out, aspen.Edge{Src: p[0], Dst: p[1]}, aspen.Edge{Src: p[1], Dst: p[0]})
	}
	return out
}

func (st deltaStep) weightedEdges() []aspen.WeightedEdge {
	var out []aspen.WeightedEdge
	for i, p := range st.pairs {
		w := 1 + float32(xhash.Mix64(st.w<<32|uint64(i))%1000)/1000
		out = append(out, aspen.WeightedEdge{Src: p[0], Dst: p[1], Val: w}, aspen.WeightedEdge{Src: p[1], Dst: p[0], Val: w})
	}
	return out
}

// deltaDifferential walks the schedule with one long-lived client whose
// reads after the first are deltas (or counted fallbacks), and at every
// step compares its view vertex by vertex with what a freshly dialed client
// — no view held, so a whole-range read — fetches for the same stamps. The
// previous step's transaction stays open across the patch and must still
// read what it read before.
func deltaDifferential[E any](t *testing.T, dial func() *Cluster[E], batch func(deltaStep) []E) {
	c := dial()
	defer c.Close()
	var older *Tx[E]
	var olderFlat ligra.Graph
	var olderCopy viewCopy
	for i, st := range deltaSchedule(41) {
		submit := c.Insert
		if st.del {
			submit = c.Delete
		}
		if _, err := submit(batch(st)); err != nil {
			t.Fatal(err)
		}
		if err := c.Barrier(); err != nil {
			t.Fatal(err)
		}
		tx, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		flat, err := tx.Flat()
		if err != nil {
			t.Fatal(err)
		}
		fresh := dial()
		ftx, err := fresh.Begin()
		if err != nil {
			t.Fatal(err)
		}
		whole, err := ftx.Flat()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(tx.Stamps(), ftx.Stamps()) {
			t.Fatalf("step %d: pinned %v and %v", i, tx.Stamps(), ftx.Stamps())
		}
		got := copyView(flat)
		if d := got.diff(copyView(whole)); d != "" {
			t.Fatalf("step %d: patched view differs from the whole-range view of %v: %s", i, tx.Stamps(), d)
		}
		ftx.Close()
		fresh.Close()
		if older != nil {
			if d := copyView(olderFlat).diff(olderCopy); d != "" {
				t.Fatalf("step %d: the previous transaction's view changed under it: %s", i, d)
			}
			older.Close()
		}
		older, olderFlat, olderCopy = tx, flat, got
	}
	older.Close()
	st := c.Stats()
	if st.DeltaReads < 20 || st.DeltaVerifyFailed != 0 || st.DeltaTooLarge == 0 {
		t.Fatalf("want most moved-shard reads served as verified deltas: %+v", st)
	}
	if st.DeltaReads+st.DeltaFallbacks+uint64(c.Shards()) != st.ViewFetches {
		t.Fatalf("view fetches not accounted as first fetch + delta + fallback: %+v", st)
	}
	t.Logf("%d delta reads (%d edges), fallbacks %d no-base %d too-large", st.DeltaReads, st.DeltaEdges, st.DeltaNoBase, st.DeltaTooLarge)
}

// TestDeltaReadDifferential is the promise of the delta read path: at every
// step of an insert/delete schedule the patched view is the whole-range
// view of the same stamps, on both payloads and both partitioners.
func TestDeltaReadDifferential(t *testing.T) {
	parts := map[string]shard.Partitioner{
		"range": shard.NewRangePartitioner(2, 1<<9),
		"hash":  shard.NewHashPartitioner(2),
	}
	for name, part := range parts {
		t.Run("graph/"+name, func(t *testing.T) {
			_, addrs := startServers(t, part, false)
			deltaDifferential(t, func() *Cluster[aspen.Edge] {
				c, err := DialGraph(part, addrs, nil, Options{})
				if err != nil {
					t.Fatal(err)
				}
				return c
			}, deltaStep.edges)
		})
		t.Run("weighted/"+name, func(t *testing.T) {
			addrs := startWeightedServers(t, part)
			deltaDifferential(t, func() *Cluster[aspen.WeightedEdge] {
				c, err := DialWeighted(part, addrs, nil, Options{})
				if err != nil {
					t.Fatal(err)
				}
				return c
			}, deltaStep.weightedEdges)
		})
	}
}

// TestDeltaReadChunked pushes one delta past maxReadVerts: the diff comes
// back in two responses, the second asked for from the last id + 1, and the
// patched view is still the whole-range view.
func TestDeltaReadChunked(t *testing.T) {
	const n = 150_000 // > maxReadVerts changed vertices, yet under a quarter of the edges
	part := shard.NewRangePartitioner(1, n)
	_, addrs := startServers(t, part, false)
	dial := func() *Cluster[aspen.Edge] {
		c, err := DialGraph(part, addrs, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c := dial()
	defer c.Close()
	read := func(c *Cluster[aspen.Edge]) (viewCopy, *Tx[aspen.Edge]) {
		t.Helper()
		tx, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		flat, err := tx.Flat()
		if err != nil {
			t.Fatal(err)
		}
		return copyView(flat), tx
	}
	var ring, chords []aspen.Edge
	for u := uint32(0); u < n; u++ {
		ring = append(ring, aspen.Edge{Src: u, Dst: (u + 1) % n}, aspen.Edge{Src: u, Dst: (u + 2) % n})
		if u < n/2 {
			chords = append(chords, aspen.Edge{Src: u, Dst: u + n/2})
		}
	}
	for _, batch := range [][]aspen.Edge{aspen.MakeUndirected(ring), aspen.MakeUndirected(chords)} {
		if _, err := c.Insert(batch); err != nil {
			t.Fatal(err)
		}
		if err := c.Barrier(); err != nil {
			t.Fatal(err)
		}
		_, tx := read(c)
		defer tx.Close()
	}
	got, tx := read(c)
	tx.Close()
	fresh := dial()
	defer fresh.Close()
	want, ftx := read(fresh)
	ftx.Close()
	if d := got.diff(want); d != "" {
		t.Fatalf("chunked delta: %s", d)
	}
	// The first, whole-range fetch is past maxReadVerts too: two chunks each.
	if st := c.Stats(); st.DeltaReads != 1 || st.DeltaEdges != n || st.RangeRPCs != 4 {
		t.Fatalf("want a two-chunk whole fetch, then one delta of %d edge changes in two chunks: %+v", n, st)
	}
}

// csrView builds a base-CSR view (no overlay) from adjacency lists.
func csrView(lists [][]uint32) *remoteView {
	v := &remoteView{order: len(lists), degs: make([]int32, len(lists)), offs: make([]uint64, len(lists)+1)}
	for u, l := range lists {
		v.degs[u] = int32(len(l))
		v.nbrs = append(v.nbrs, l...)
		v.offs[u+1] = uint64(len(v.nbrs))
	}
	v.m = uint64(len(v.nbrs))
	return v
}

// TestOverlayCompactionBound pins the overlay's stated bound: a patch
// leaves an overlay behind while what the overlay cost since the last CSR —
// the lists written plus a table entry per rewritten vertex — stays within
// a quarter of the shard's m, and the patch that takes it past that returns
// a fresh CSR: no overlay, nothing counted.
func TestOverlayCompactionBound(t *testing.T) {
	const n = 64
	lists := make([][]uint32, 2*n) // neighbors live in [n, 2n): room to add below them
	for u := 0; u < n; u++ {
		for k := 1; k <= 4; k++ {
			lists[u] = append(lists[u], uint32((u+k)%n)+n)
		}
		slices.Sort(lists[u])
	}
	v := csrView(lists)
	var over uint64
	compactions := 0
	for step := 0; step < 60; step++ {
		u := uint32(step % n)
		old, _ := v.list(u)
		d := &delta{order: uint32(v.order), m: v.m + 1,
			verts: []deltaVertex{{id: u, deg: uint32(len(old)) + 1, nAdd: 1}}, adds: []uint32{uint32(step / n)}}
		nv, err := v.patch(d)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		over += uint64(len(old)) + 1 + overlayEntryWords
		if over > nv.m/4 {
			if nv.over != 0 || nv.lists != nil || uint64(len(nv.nbrs)) != nv.m {
				t.Fatalf("step %d: overlay cost %d past m/4 = %d and no compaction (over %d, %d lists)", step, over, nv.m/4, nv.over, len(nv.lists))
			}
			over = 0
			compactions++
		} else if nv.over != over || nv.lists == nil {
			t.Fatalf("step %d: overlay counts %d words, want %d", step, nv.over, over)
		}
		if got, _ := nv.list(u); len(got) != len(old)+1 || got[0] != uint32(step/n) {
			t.Fatalf("step %d: vertex %d reads %v", step, u, got)
		}
		if prev, _ := v.list(u); !slices.Equal(prev, old) {
			t.Fatalf("step %d: patch mutated its base", step)
		}
		v = nv
	}
	if compactions < 2 {
		t.Fatalf("threshold never reached twice in 60 patches (%d compactions)", compactions)
	}
}

// TestPatchRejectsWhatDoesNotApply feeds patch deltas that cannot describe
// the held view; each must be refused, never applied.
func TestPatchRejectsWhatDoesNotApply(t *testing.T) {
	v := csrView([][]uint32{{1, 2}, {0}, {0}, {}})
	ok := delta{order: 4, m: 5, verts: []deltaVertex{{id: 3, deg: 1, nAdd: 1}}, adds: []uint32{0}}
	if _, err := v.patch(&ok); err != nil {
		t.Fatalf("a well-formed delta was refused: %v", err)
	}
	bad := map[string]delta{
		"m off by one":       {order: 4, m: 6, verts: []deltaVertex{{id: 3, deg: 1, nAdd: 1}}, adds: []uint32{0}},
		"degree too large":   {order: 4, m: 6, verts: []deltaVertex{{id: 3, deg: 2, nAdd: 1}}, adds: []uint32{0}},
		"degree too small":   {order: 4, m: 3, verts: []deltaVertex{{id: 0, deg: 0, nDel: 1}}, dels: []uint32{1}},
		"del of absent edge": {order: 4, m: 3, verts: []deltaVertex{{id: 0, deg: 1, nDel: 1}}, dels: []uint32{3}},
		"adds out of order":  {order: 4, m: 6, verts: []deltaVertex{{id: 3, deg: 2, nAdd: 2}}, adds: []uint32{2, 1}},
		"add and del of one": {order: 4, m: 4, verts: []deltaVertex{{id: 0, deg: 2, nAdd: 1, nDel: 1}}, adds: []uint32{1}, dels: []uint32{1}},
		"edges beyond order": {order: 3, m: 5, verts: []deltaVertex{{id: 3, deg: 1, nAdd: 1}}, adds: []uint32{0}},
		"duplicate add":      {order: 4, m: 5, verts: []deltaVertex{{id: 0, deg: 3, nAdd: 1}}, adds: []uint32{2}},
	}
	for name, d := range bad {
		if nv, err := v.patch(&d); err == nil {
			t.Errorf("%s: applied, view now %+v", name, copyView(nv))
		}
	}
}

// TestDeltaBasePinBound runs a thousand patch steps and checks what keeps
// the bases alive: server-side, each shard holds its current version, at
// most one base pinned by the client's view cache, and one per open
// transaction — and Close gives the base pins back.
func TestDeltaBasePinBound(t *testing.T) {
	part := shard.NewRangePartitioner(2, 1<<9)
	servers, addrs := startServers(t, part, false)
	c, err := DialGraph(part, addrs, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Insert(aspen.MakeUndirected(rmat.NewGenerator(9, 3).Edges(0, 3_000))); err != nil {
		t.Fatal(err)
	}
	// liveWithin waits for the fire-and-forget releases to land.
	liveWithin := func(when string, limit int64) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for _, ts := range servers {
			for ts.eng.Stats().LiveVersions > limit {
				if time.Now().After(deadline) {
					t.Fatalf("%s: %d live versions on a shard, want ≤ %d", when, ts.eng.Stats().LiveVersions, limit)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	read := func() *Tx[aspen.Edge] {
		t.Helper()
		tx, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Flat(); err != nil {
			t.Fatal(err)
		}
		return tx
	}
	read().Close()
	var held *Tx[aspen.Edge]
	for i := uint32(0); i < 1000; i++ {
		// One edge in each shard's range, so both shards move every step.
		u, v := i%200, 200+i%50
		batch := []aspen.Edge{{Src: u, Dst: v}, {Src: v, Dst: u}, {Src: 256 + u, Dst: 256 + v}, {Src: 256 + v, Dst: 256 + u}}
		submit := c.Insert
		if i%3 == 2 {
			submit = c.Delete
		}
		if _, err := submit(batch); err != nil {
			t.Fatal(err)
		}
		if err := c.Barrier(); err != nil {
			t.Fatal(err)
		}
		tx := read()
		switch {
		case i%100 == 50:
			held = tx // stays open across the next 25 steps
		case i%100 == 75:
			liveWithin(fmt.Sprintf("step %d, one transaction open", i), 3)
			held.Close()
			tx.Close()
		default:
			tx.Close()
		}
		if i%100 == 99 {
			liveWithin(fmt.Sprintf("step %d, no transaction open", i), 2)
		}
	}
	st := c.Stats()
	if st.DeltaReads < 1900 || st.DeltaVerifyFailed != 0 {
		t.Fatalf("1000 steps × 2 shards should be nearly all deltas: %+v", st)
	}
	c.Close()
	liveWithin("after Close", 1)
}

// countingDialer counts the bytes the client receives.
func countingDialer(n *atomic.Int64) func(network, addr string, timeout time.Duration) (net.Conn, error) {
	return func(network, addr string, timeout time.Duration) (net.Conn, error) {
		nc, err := net.DialTimeout(network, addr, timeout)
		if err != nil {
			return nil, err
		}
		return &countingConn{Conn: nc, n: n}, nil
	}
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// remoteFlatOp is the op of BenchmarkRemoteFlat and its allocation gate:
// one read of a moved cluster — pin, Flat, close — on a loopback 2-shard
// cluster preloaded with 500 000 edges. step commits the next 500-edge
// batch and readies the read; read is the measured part, and rx reports
// the bytes the client has received so far. "delta" is the read path (the
// held views are patched); "whole" is the same read with nothing held
// (step drops the views), answered from the empty version every time. With
// replicas the shards are durable with one replica each ("replica-delta"):
// the pin goes to the primary, the read to the replica by WAL seq.
func remoteFlatOp(tb testing.TB, replicas bool) (step func(whole bool), read func(), rx func() int64) {
	part := shard.NewRangePartitioner(2, 1<<16)
	addrs := make([]string, 2)
	var repls []string
	var caughtUp []func() bool
	for s := range addrs {
		var eng *stream.Engine[aspen.Graph, aspen.Edge]
		dir := ""
		if replicas {
			dir = tb.TempDir()
			var err error
			if eng, err = stream.RecoverGraphEngine(testParams(), stream.Options{}, stream.Durability{Dir: dir}); err != nil {
				tb.Fatal(err)
			}
		} else {
			eng = stream.NewGraphEngine(aspen.NewGraph(testParams()), stream.Options{})
		}
		srv := NewGraphServer(eng, testParams(), dir, s, 2)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		go srv.Serve(ln)
		tb.Cleanup(func() { srv.Close(); eng.Close() })
		addrs[s] = ln.Addr().String()
		if dir != "" {
			repl := NewGraphReplica(addrs[s], testParams(), s, 2, 0, Options{})
			rln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				tb.Fatal(err)
			}
			go repl.Serve(rln)
			tb.Cleanup(func() { repl.Close() })
			repls = append(repls, rln.Addr().String())
			caughtUp = append(caughtUp, func() bool { return repl.Applied() >= eng.WALSeq() })
		}
	}
	// The replicas apply the tail in this process: wait for them before a
	// read is measured, so no tail apply is counted in it.
	waitReplicas := func() {
		for _, ok := range caughtUp {
			for i := 0; !ok(); i++ {
				if i == 5000 {
					tb.Fatal("replica never caught up")
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	var received atomic.Int64
	c, err := DialGraph(part, addrs, repls, Options{Dialer: countingDialer(&received)})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		if st := c.Stats(); len(repls) > 0 && st.ReplicaReads == 0 {
			tb.Errorf("no read was served by a replica: %+v", st)
		}
		c.Close()
	})
	gen := rmat.NewGenerator(16, 11)
	commit := func(lo, hi uint64) {
		if _, err := c.Insert(aspen.MakeUndirected(gen.Edges(lo, hi))); err != nil {
			tb.Fatal(err)
		}
		if err := c.Barrier(); err != nil {
			tb.Fatal(err)
		}
	}
	read = func() {
		tx, err := c.Begin()
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := tx.Flat(); err != nil {
			tb.Fatal(err)
		}
		tx.Close()
	}
	pos := uint64(500_000)
	commit(0, pos)
	waitReplicas()
	read()
	step = func(whole bool) {
		commit(pos, pos+500)
		pos += 500
		if whole {
			c.dropViews()
		}
		waitReplicas()
	}
	return step, read, received.Load
}

// BenchmarkRemoteFlat measures remoteFlatOp's read; rx-B/op is what the
// client received per read.
func BenchmarkRemoteFlat(b *testing.B) {
	for _, mode := range []string{"whole", "delta", "replica-delta"} {
		b.Run(mode, func(b *testing.B) {
			step, read, rx := remoteFlatOp(b, mode == "replica-delta")
			b.ReportAllocs()
			b.ResetTimer()
			var got int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				step(mode == "whole")
				before := rx()
				b.StartTimer()
				read()
				got += rx() - before
			}
			b.ReportMetric(float64(got)/float64(b.N), "rx-B/op")
		})
	}
}

// allocsPerRead reports the mean heap allocations of read over runs
// calls, each after an uncounted step (b.StopTimer's semantics), once two
// uncounted rounds have warmed the client's and servers' scratch.
func allocsPerRead(runs int, step, read func()) float64 {
	for range 2 {
		step()
		read()
	}
	var before, after runtime.MemStats
	var n uint64
	for range runs {
		step()
		runtime.ReadMemStats(&before)
		read()
		runtime.ReadMemStats(&after)
		n += after.Mallocs - before.Mallocs
	}
	return float64(n) / float64(runs)
}

// TestAllocGates holds each gated benchmark's op at no more than its
// pinned allocs/op × 1.15 (a pinned 0 stays 0). The "delta" and "whole"
// RemoteFlat rows share one cluster. Re-pinning a gate edits its number
// here with a BENCHMARKS.md line saying why.
func TestAllocGates(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	check := func(name string, n, allocs float64) {
		t.Logf("%s: %.1f allocs/op (gate %.0f × 1.15)", name, n, allocs)
		if n > allocs*1.15 {
			t.Errorf("%s: %.1f allocs/op, gate %.0f × 1.15", name, n, allocs)
		}
	}
	for _, g := range []struct {
		name   string
		op     func(testing.TB) func()
		allocs float64
	}{
		{"BenchmarkSubmitEncode", submitEncodeOp, 0},
		{"BenchmarkDedupCheck", dedupCheckOp, 0},
		{"BenchmarkRemoteTxBegin", remoteTxBeginOp, 8},
	} {
		check(g.name, testing.AllocsPerRun(100, g.op(t)), g.allocs)
	}
	step, read, _ := remoteFlatOp(t, false)
	check("BenchmarkRemoteFlat/delta", allocsPerRead(6, func() { step(false) }, read), 63)
	check("BenchmarkRemoteFlat/whole", allocsPerRead(3, func() { step(true) }, read), 74)
	step, read, _ = remoteFlatOp(t, true)
	check("BenchmarkRemoteFlat/replica-delta", allocsPerRead(6, func() { step(false) }, read), 66)
}
