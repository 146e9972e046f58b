package remote

import (
	"fmt"
	"math"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/algos"
	"repro/internal/aspen"
	"repro/internal/ctree"
	"repro/internal/ligra"
	"repro/internal/rmat"
	"repro/internal/shard"
	"repro/internal/stream"
	"repro/internal/wal"
	"repro/internal/xhash"
)

func testParams() ctree.Params { return ctree.Params{B: 8} }

// testServer is one in-process shard server for the differential tests
// (the multi-process path is exercised by cmd/shardd's tests).
type testServer struct {
	eng  *stream.Engine[aspen.Graph, aspen.Edge]
	srv  *Server[aspen.Graph, aspen.Edge]
	addr string
	dir  string // WAL dir when durable
}

// startServers brings up one shard server per shard of part. durable
// gives each shard a WAL dir (required for tail subscriptions).
func startServers(t *testing.T, part shard.Partitioner, durable bool) ([]*testServer, []string) {
	t.Helper()
	n := part.Shards()
	servers := make([]*testServer, n)
	addrs := make([]string, n)
	for s := 0; s < n; s++ {
		var eng *stream.Engine[aspen.Graph, aspen.Edge]
		dir := ""
		if durable {
			dir = t.TempDir()
			var err error
			eng, err = stream.RecoverGraphEngine(testParams(), stream.Options{}, stream.Durability{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
		} else {
			eng = stream.NewGraphEngine(aspen.NewGraph(testParams()), stream.Options{})
		}
		srv := NewGraphServer(eng, testParams(), dir, s, n)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		ts := &testServer{eng: eng, srv: srv, addr: ln.Addr().String(), dir: dir}
		servers[s] = ts
		addrs[s] = ts.addr
		t.Cleanup(func() {
			ts.srv.Close()
			ts.eng.Close()
		})
	}
	return servers, addrs
}

type op struct {
	del   bool
	edges []aspen.Edge
}

func rmatOps(scale int, batches, batchSize int, seed uint64) []op {
	gen := rmat.NewGenerator(scale, seed)
	var ops []op
	var pos uint64
	for i := 0; i < batches; i++ {
		lo := pos
		pos += uint64(batchSize)
		ops = append(ops, op{edges: aspen.MakeUndirected(gen.Edges(lo, pos))})
		if i%3 == 2 && lo >= uint64(batchSize) {
			ops = append(ops, op{del: true,
				edges: aspen.MakeUndirected(gen.Edges(lo-uint64(batchSize), lo-uint64(batchSize)/2))})
		}
	}
	return ops
}

func randomOps(idSpace uint32, batches, batchSize int, seed uint64) []op {
	rng := xhash.NewRNG(seed)
	var ops []op
	for i := 0; i < batches; i++ {
		edges := make([]aspen.Edge, 0, batchSize)
		for j := 0; j < batchSize; j++ {
			u, v := rng.Uint32()%idSpace, rng.Uint32()%idSpace
			if u != v {
				edges = append(edges, aspen.Edge{Src: u, Dst: v})
			}
		}
		ops = append(ops, op{del: i%4 == 3, edges: aspen.MakeUndirected(edges)})
	}
	return ops
}

// checkAgainst compares a remote view against the single-engine ground
// truth: structure, then the kernel answers the acceptance gate names.
func checkAgainst(t *testing.T, g aspen.Graph, v ligra.Graph) {
	t.Helper()
	if v.Order() != g.Order() {
		t.Fatalf("Order = %d, want %d", v.Order(), g.Order())
	}
	if v.NumEdges() != g.NumEdges() {
		t.Fatalf("NumEdges = %d, want %d", v.NumEdges(), g.NumEdges())
	}
	for u := 0; u < g.Order(); u++ {
		id := uint32(u)
		if v.Degree(id) != g.Degree(id) {
			t.Fatalf("Degree(%d) = %d, want %d", id, v.Degree(id), g.Degree(id))
		}
		var want, got []uint32
		g.ForEachNeighbor(id, func(w uint32) bool { want = append(want, w); return true })
		v.ForEachNeighbor(id, func(w uint32) bool { got = append(got, w); return true })
		if !slices.Equal(got, want) {
			t.Fatalf("neighbors of %d differ: %v vs %v", id, got, want)
		}
	}
	for _, src := range []uint32{0, 1, uint32(g.Order()) / 2} {
		if want, got := algos.BFS(g, src, false).Distances(), algos.BFS(v, src, false).Distances(); !slices.Equal(got, want) {
			t.Fatalf("BFS(%d) distances differ", src)
		}
	}
	if want, got := algos.ConnectedComponents(g), algos.ConnectedComponents(v); !slices.Equal(got, want) {
		t.Fatal("CC labels differ")
	}
}

// TestRemoteMatchesInProcess: after one schedule, a remote cluster's
// stitched view equals the in-process graph that took the same schedule.
func TestRemoteMatchesInProcess(t *testing.T) {
	schedules := map[string][]op{
		"rmat":   rmatOps(10, 6, 1_200, 31),
		"random": randomOps(1<<10, 8, 1_000, 32),
	}
	for name, ops := range schedules {
		for _, part := range []shard.Partitioner{
			shard.NewRangePartitioner(3, 1<<10),
			shard.NewHashPartitioner(2),
		} {
			t.Run(fmt.Sprintf("%s/%T-%d", name, part, part.Shards()), func(t *testing.T) {
				_, addrs := startServers(t, part, false)
				c, err := DialGraph(part, addrs, nil, Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()

				single := aspen.NewGraph(testParams())
				for _, o := range ops {
					var p *Pending
					var err error
					if o.del {
						single = single.DeleteEdges(o.edges)
						p, err = c.Delete(o.edges)
					} else {
						single = single.InsertEdges(o.edges)
						p, err = c.Insert(o.edges)
					}
					if err != nil {
						t.Fatal(err)
					}
					if err := p.Wait(); err != nil {
						t.Fatal(err)
					}
				}
				if err := c.Barrier(); err != nil {
					t.Fatal(err)
				}

				tx, err := c.Begin()
				if err != nil {
					t.Fatal(err)
				}
				defer tx.Close()
				flat, err := tx.Flat()
				if err != nil {
					t.Fatal(err)
				}
				if _, ok := flat.(ligra.FlatGraph); !ok {
					t.Fatal("remote stitched view does not satisfy ligra.FlatGraph")
				}
				checkAgainst(t, single, flat)
			})
		}
	}
}

// TestHelloRefusesPayloadMismatch: the hello's payload byte derives from
// the edge width, so an id-only client and a weighted server (or the
// reverse) must be refused at the hello, with both sides named.
func TestHelloRefusesPayloadMismatch(t *testing.T) {
	part := shard.NewRangePartitioner(1, 1<<10)
	c, err := DialGraph(part, startMemServers[float32](t, part), nil, Options{})
	checkHelloRefused(t, "id-only client, weighted server", c, err)
	cw, err := DialGraphOf[float32](part, startMemServers[struct{}](t, part), nil, Options{})
	checkHelloRefused(t, "weighted client, id-only server", cw, err)
}

func checkHelloRefused[E any](t *testing.T, name string, c *Cluster[E], err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// One call on the primary connection: its first contact is the hello.
	_, _, _, err = c.prim[0].health()
	if err == nil || !strings.Contains(err.Error(), "weighted=true") || !strings.Contains(err.Error(), "weighted=false") {
		t.Fatalf("%s: first contact returned %v, want a hello refusal naming both payloads", name, err)
	}
	// A pin with no replica or stale view to fall back to keeps the
	// primary's refusal in its error.
	tx, err := c.Begin()
	if err == nil {
		tx.Close()
	}
	if err == nil || !strings.Contains(err.Error(), "weighted=true") || !strings.Contains(err.Error(), "weighted=false") {
		t.Fatalf("%s: Begin returned %v, want the hello refusal naming both payloads", name, err)
	}
}

// TestHelloRefusalEndsRetries: a submit or flush whose connection is
// refused at the hello is not a transport failure to retry for the whole
// RetryDeadline; the refusal is the record's final outcome, whether the
// server refuses (payload) or the client does (role).
func TestHelloRefusalEndsRetries(t *testing.T) {
	part := shard.NewRangePartitioner(1, 1<<10)
	c, err := DialGraph(part, startMemServers[float32](t, part), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	refusedWithin(t, "Insert(...).Wait()", func() error {
		p, err := c.Insert([]aspen.Edge{{Src: 1, Dst: 2}})
		if err != nil {
			return err
		}
		return p.Wait()
	}, "weighted=true", "weighted=false")
	refusedWithin(t, "FlushAll", func() error {
		_, err := c.FlushAll()
		return err
	}, "weighted=true", "weighted=false")

	// A replica's address given as a primary: the server accepts the
	// hello, the client refuses the role it confirms.
	r := NewGraphReplica[struct{}]("127.0.0.1:1", testParams(), 0, 1, Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go r.Serve(ln)
	defer r.Close()
	cr, err := DialGraph(part, []string{ln.Addr().String()}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cr.Close()
	refusedWithin(t, "FlushAll against a replica", func() error {
		_, err := cr.FlushAll()
		return err
	}, "server role")
}

// TestHelloRefusalKeepsBreakerClosed: a refused hello is the endpoint's
// answer, not an outage, so repeated refusals never open its breaker. Each
// round's submit and pin must fail fast with the refusal itself, never
// with "breaker open" after a cooldown.
func TestHelloRefusalKeepsBreakerClosed(t *testing.T) {
	part := shard.NewRangePartitioner(1, 1<<10)
	c, err := DialGraph(part, startMemServers[float32](t, part), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for round := range 6 {
		for _, op := range []struct {
			name string
			f    func() error
		}{
			{"Insert(...).Wait()", func() error {
				p, err := c.Insert([]aspen.Edge{{Src: 1, Dst: 2}})
				if err != nil {
					return err
				}
				return p.Wait()
			}},
			{"Begin", func() error {
				tx, err := c.Begin()
				if err == nil {
					tx.Close()
				}
				return err
			}},
		} {
			start := time.Now()
			err := op.f()
			if took := time.Since(start); took > time.Second {
				t.Fatalf("round %d: %s took %v", round, op.name, took)
			}
			if err == nil || !strings.Contains(err.Error(), "weighted=true") || !strings.Contains(err.Error(), "weighted=false") {
				t.Fatalf("round %d: %s returned %v, want the hello refusal naming both payloads", round, op.name, err)
			}
		}
	}
	if n := c.Stats().BreakerOpens; n != 0 {
		t.Fatalf("refused hellos opened the breaker %d times", n)
	}
}

// refusedWithin runs op and requires it to fail within 5s with an error
// naming every one of want.
func refusedWithin(t *testing.T, name string, op func() error, want ...string) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- op() }()
	select {
	case err := <-done:
		for _, w := range want {
			if err == nil || !strings.Contains(err.Error(), w) {
				t.Fatalf("%s returned %v, want a hello refusal naming %q", name, err, want)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s still retrying a hello refusal after 5s", name)
	}
}

func TestRemoteWeightedSSSP(t *testing.T) {
	part := shard.NewRangePartitioner(2, 1<<10)
	c, err := DialGraphOf[float32](part, startMemServers[float32](t, part), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	gen := rmat.NewGenerator(10, 5)
	weightOf := func(i uint64) float32 { return 1 + float32(xhash.Mix64(i)%1000)/1000 }
	mkBatch := func(lo, hi uint64) []aspen.WeightedEdge {
		es := gen.Edges(lo, hi)
		out := make([]aspen.WeightedEdge, 0, 2*len(es))
		for j, e := range es {
			if e.Src == e.Dst {
				continue
			}
			w := weightOf(lo + uint64(j))
			out = append(out,
				aspen.WeightedEdge{Src: e.Src, Dst: e.Dst, Val: w},
				aspen.WeightedEdge{Src: e.Dst, Dst: e.Src, Val: w})
		}
		return out
	}
	single := aspen.NewWeightedGraphWith(testParams())
	var pos uint64
	for i := 0; i < 5; i++ {
		batch := mkBatch(pos, pos+1_000)
		pos += 1_000
		single = single.InsertEdges(batch)
		if _, err := c.Insert(batch); err != nil {
			t.Fatal(err)
		}
		if i == 3 {
			del := mkBatch(0, 400)
			single = single.DeleteEdges(del)
			if _, err := c.Delete(del); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.Barrier(); err != nil {
		t.Fatal(err)
	}
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	g, err := tx.Flat()
	if err != nil {
		t.Fatal(err)
	}
	flat, ok := g.(ligra.FlatWeightedGraph)
	if !ok {
		t.Fatal("remote weighted view does not satisfy ligra.FlatWeightedGraph")
	}
	for _, src := range []uint32{0, 3, 200} {
		want := algos.SSSP(single, src)
		got := algos.SSSP(flat, src)
		if len(got) != len(want) {
			t.Fatalf("SSSP(%d) length %d vs %d", src, len(got), len(want))
		}
		for i := range want {
			wi, gi := float64(want[i]), float64(got[i])
			if math.IsInf(wi, 1) != math.IsInf(gi, 1) ||
				(!math.IsInf(wi, 1) && math.Abs(wi-gi) > 1e-5*(1+math.Abs(wi))) {
				t.Fatalf("SSSP(%d)[%d] = %g, want %g", src, i, gi, wi)
			}
		}
	}
}

// TestRemoteViewCaching proves the client's read-path caches: repinning
// an unchanged cluster hits the stitched-view slot, and a write to one
// shard refetches only that shard.
func TestRemoteViewCaching(t *testing.T) {
	part := shard.NewRangePartitioner(3, 1<<9)
	_, addrs := startServers(t, part, false)
	c, err := DialGraph(part, addrs, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	seed := aspen.MakeUndirected(rmat.NewGenerator(9, 7).Edges(0, 4_000))
	if _, err := c.Insert(seed); err != nil {
		t.Fatal(err)
	}
	if err := c.Barrier(); err != nil {
		t.Fatal(err)
	}
	read := func() {
		tx, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		defer tx.Close()
		if _, err := tx.Flat(); err != nil {
			t.Fatal(err)
		}
	}
	read()
	read() // unchanged: stitched-slot hit
	if st := c.Stats(); st.StitchHits == 0 {
		t.Fatalf("expected a stitch hit on an unchanged repin: %+v", st)
	}
	// Touch only shard 0's range; shards 1-2 must reuse cached views.
	if _, err := c.Insert([]aspen.Edge{{Src: 1, Dst: 2}, {Src: 2, Dst: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Barrier(); err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	read()
	st := c.Stats()
	if st.ViewHits <= before.ViewHits {
		t.Fatalf("expected unmoved shards to hit the view cache: %+v -> %+v", before, st)
	}
	if st.ViewFetches != before.ViewFetches+1 {
		t.Fatalf("expected exactly one shard refetch, got %d", st.ViewFetches-before.ViewFetches)
	}
}

// TestReplicaServesReads tails a durable primary into a replica and
// proves pinned reads land there, with the result identical to the
// primary's.
func TestReplicaServesReads(t *testing.T) {
	part := shard.NewRangePartitioner(1, 1<<20)
	servers, addrs := startServers(t, part, true)

	repl := NewGraphReplica[struct{}](addrs[0], testParams(), 0, 1, Options{})
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go repl.Serve(rln)
	t.Cleanup(repl.Close)

	c, err := DialGraph(part, addrs, []string{rln.Addr().String()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	single := aspen.NewGraph(testParams())
	for _, o := range rmatOps(9, 5, 800, 41) {
		var err error
		if o.del {
			single = single.DeleteEdges(o.edges)
			_, err = c.Delete(o.edges)
		} else {
			single = single.InsertEdges(o.edges)
			_, err = c.Insert(o.edges)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Barrier(); err != nil {
		t.Fatal(err)
	}
	// The ack covers the primary's commit; give the tail a moment to
	// drain into the replica (reads fall back to the primary until it
	// does, so correctness never depends on this).
	want := servers[0].eng.WALSeq()
	for i := 0; i < 200 && repl.Applied() < want; i++ {
		time.Sleep(5 * time.Millisecond)
	}

	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	flat, err := tx.Flat()
	if err != nil {
		t.Fatal(err)
	}
	checkAgainst(t, single, flat)
	if st := c.Stats(); repl.Applied() >= want && st.ReplicaReads == 0 {
		t.Fatalf("caught-up replica served no reads: %+v", st)
	}
	if rs := repl.Stats(); rs.Records == 0 && rs.Snapshots == 0 {
		t.Fatalf("replica applied nothing: %+v", rs)
	}
}

// TestReplicaLagFallsBack points the cluster at a replica that can
// never catch up (its tail target does not answer) and proves reads
// degrade to the primary instead of failing.
func TestReplicaLagFallsBack(t *testing.T) {
	part := shard.NewRangePartitioner(1, 1<<20)
	_, addrs := startServers(t, part, true)

	// A replica of an address nothing listens on: applied stays 0.
	repl := NewGraphReplica[struct{}]("127.0.0.1:1", testParams(), 0, 1, Options{})
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go repl.Serve(rln)
	t.Cleanup(repl.Close)

	c, err := DialGraph(part, addrs, []string{rln.Addr().String()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	single := aspen.NewGraph(testParams())
	batch := aspen.MakeUndirected(rmat.NewGenerator(9, 3).Edges(0, 2_000))
	single = single.InsertEdges(batch)
	if _, err := c.Insert(batch); err != nil {
		t.Fatal(err)
	}
	if err := c.Barrier(); err != nil {
		t.Fatal(err)
	}
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	flat, err := tx.Flat()
	if err != nil {
		t.Fatal(err)
	}
	checkAgainst(t, single, flat)
	if st := c.Stats(); st.PrimaryFallbacks == 0 {
		t.Fatalf("expected a primary fallback from the lagging replica: %+v", st)
	}
}

// TestReplicaSnapshotBootstrap truncates the primary's WAL behind a
// checkpoint before the replica first connects, forcing the tail to
// bootstrap from the shipped checkpoint snapshot.
func TestReplicaSnapshotBootstrap(t *testing.T) {
	dir := t.TempDir()
	eng, err := stream.RecoverGraphEngine(testParams(), stream.Options{}, stream.Durability{
		Dir:             dir,
		CheckpointEvery: 2,
		SegmentBytes:    1 << 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewGraphServer(eng, testParams(), dir, 0, 1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		srv.Close()
		eng.Close()
	})

	single := aspen.NewGraph(testParams())
	gen := rmat.NewGenerator(9, 11)
	var pos uint64
	for i := 0; i < 20; i++ {
		batch := aspen.MakeUndirected(gen.Edges(pos, pos+500))
		pos += 500
		single = single.InsertEdges(batch)
		p, err := eng.Insert(batch)
		if err != nil {
			t.Fatal(err)
		}
		if p.Wait() == 0 {
			t.Fatal("insert nacked")
		}
	}
	if _, err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	// Wait for checkpoint+truncation to move the log's oldest seq past
	// 1, which is what forces the snapshot bootstrap.
	var oldest uint64
	for i := 0; i < 400; i++ {
		if err := eng.SyncWAL(); err != nil {
			t.Fatal(err)
		}
		oldest, err = wal.OldestSeq(dir)
		if err != nil {
			t.Fatal(err)
		}
		if oldest > 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if oldest <= 1 {
		t.Skip("log never truncated; cannot exercise the bootstrap path")
	}

	repl := NewGraphReplica[struct{}](ln.Addr().String(), testParams(), 0, 1, Options{})
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go repl.Serve(rln)
	t.Cleanup(repl.Close)

	want := eng.WALSeq()
	for i := 0; i < 400 && repl.Applied() < want; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	if repl.Applied() < want {
		t.Fatalf("replica stuck at %d, want %d", repl.Applied(), want)
	}
	rs := repl.Stats()
	if rs.Snapshots == 0 {
		t.Fatalf("expected a snapshot bootstrap: %+v", rs)
	}
	// The replica's current state must equal the primary's graph.
	g, ok := repl.stateAt(repl.Applied())
	if !ok {
		t.Fatal("replica lost its own applied state")
	}
	checkAgainst(t, single, g)
}

// remoteTxBeginOp is the op of BenchmarkRemoteTxBegin and its allocation
// gate: the pin round trip against a local server — the per-query fixed
// cost of the remote read path.
func remoteTxBeginOp(tb testing.TB) func() {
	part := shard.NewRangePartitioner(1, 1<<20)
	eng := stream.NewGraphEngine(aspen.NewGraph(testParams()), stream.Options{})
	srv := NewGraphServer(eng, testParams(), "", 0, 1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go srv.Serve(ln)
	tb.Cleanup(func() {
		srv.Close()
		eng.Close()
	})
	c, err := DialGraph(part, []string{ln.Addr().String()}, nil, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	begin := func() {
		tx, err := c.Begin()
		if err != nil {
			tb.Fatal(err)
		}
		tx.Close()
	}
	begin() // warm the connection
	return begin
}

func BenchmarkRemoteTxBegin(b *testing.B) { benchOp(b, remoteTxBeginOp(b)) }
