package remote

import (
	"bufio"
	"net"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/algos"
	"repro/internal/aspen"
	"repro/internal/ctree"
	"repro/internal/ligra"
	"repro/internal/rmat"
	"repro/internal/rpc"
	"repro/internal/scratch"
	"repro/internal/shard"
	"repro/internal/stream"
)

// sinkConn is a transport that accepts every write at once, so the bounds
// below measure the connection's own buffers and nothing of the kernel's.
type sinkConn struct{ net.Conn }

func (sinkConn) Write(p []byte) (int, error)      { return len(p), nil }
func (sinkConn) SetWriteDeadline(time.Time) error { return nil }
func (sinkConn) Close() error                     { return nil }

// encCap reads the capacity of an encoder's frame buffer.
func encCap(e *rpc.Encoder) int {
	return reflect.ValueOf(e).Elem().FieldByName("buf").Cap()
}

// TestConnScratchRetentionBound is the transport's row of the scratch-
// retention sweep, for both writers that own an encoder for a connection's
// lifetime: after one 8 MiB frame has been written each holds at most
// scratch.Keep, and the 256 KB frames after it reuse one buffer that never
// grows again and allocate nothing.
func TestConnScratchRetentionBound(t *testing.T) {
	big := func(e *rpc.Encoder) { e.Reserve(8 << 20) }
	small := func(e *rpc.Encoder) { e.Reserve(256 << 10) }

	cn := newConn("sink", helloInfo{}, Options{}.withDefaults(), nil)
	cn.nc, cn.gen, cn.pgen = sinkConn{}, 1, 1
	cn.bw = bufio.NewWriterSize(cn.nc, 1<<16)
	ca := &call{done: make(chan error, 1)}
	request := func(build func(*rpc.Encoder)) {
		if _, err := cn.startPinned(rpc.VerbSubmit, 0, build, ca, 0); err != nil {
			t.Fatal(err)
		}
		cn.pmu.Lock()
		clear(cn.pending)
		cn.pmu.Unlock()
	}

	sc := &serverConn[aspen.Graph, aspen.Edge]{nc: sinkConn{}}
	sc.bw = bufio.NewWriterSize(sc.nc, 1<<16)
	reply := func(build func(*rpc.Encoder)) {
		if err := sc.reply(rpc.VerbRead, 0, 1, build); err != nil {
			t.Fatal(err)
		}
	}

	for _, row := range []struct {
		name string
		send func(build func(*rpc.Encoder))
		enc  *rpc.Encoder
	}{
		{"client Conn", request, &cn.enc},
		{"serverConn", reply, &sc.enc},
	} {
		row.send(big)
		if c := encCap(row.enc); c > scratch.Keep {
			t.Fatalf("%s keeps %d bytes after writing an 8 MiB frame, bound %d", row.name, c, scratch.Keep)
		}
		row.send(small)
		kept := encCap(row.enc)
		if kept < 256<<10 || kept > scratch.Keep {
			t.Fatalf("%s: encoder cap %d after a 256 KB frame, want within [256 KB, %d]", row.name, kept, scratch.Keep)
		}
		if allocs := testing.AllocsPerRun(1000, func() { row.send(small) }); allocs != 0 {
			t.Fatalf("%s: a 256 KB frame after the large one allocates %.0f objects, want 0", row.name, allocs)
		}
		if c := encCap(row.enc); c != kept {
			t.Fatalf("%s: encoder re-grew from %d to %d over steady-state frames", row.name, kept, c)
		}
	}
}

// liveHeap is the heap still reachable after two collections (the second
// frees what the first one's finalizers released).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestFootprintAfterPreload holds the whole stack to the retention rule at
// the point the ledger measures bytes_per_edge: one submit preloads a
// million directed edges (the only message of a run above scratch.Keep),
// a hundred 1 000-edge batches and one query follow, and what is then live
// beyond the data itself — the same traffic through the same engines with no
// WAL and no wire, plus the client's CSR views — must fit in 4 MiB. Before
// the rule every buffer that had carried the preload was still its size:
// 23 MiB on the durable engine and 48 MiB on the cluster.
func TestFootprintAfterPreload(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting is not meaningful under the race detector")
	}
	const slack = 4 << 20
	p := ctree.DefaultParams()
	gen := rmat.NewGenerator(16, 17)
	preload := aspen.MakeUndirected(gen.Edges(0, 500_000))
	batches := make([][]aspen.Edge, 100)
	for i := range batches {
		lo := uint64(500_000 + 500*i)
		batches[i] = aspen.MakeUndirected(gen.Edges(lo, lo+500))
	}
	// drive runs the scenario and returns the store's live heap, measured
	// while the store and (through held) what it serves are still in use.
	drive := func(open func() (st stream.Store[aspen.Edge], held func() uint64)) int64 {
		t.Helper()
		base := liveHeap()
		st, held := open()
		defer st.Close()
		submit := func(edges []aspen.Edge) {
			if err := st.Submit(false, edges); err != nil {
				t.Fatal(err)
			}
			if _, err := st.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		submit(preload)
		for _, b := range batches {
			submit(b)
		}
		snap, err := st.Pin()
		if err != nil {
			t.Fatal(err)
		}
		flat, err := snap.Flat()
		if err != nil {
			t.Fatal(err)
		}
		if reach := algos.BFS(flat, preload[0].Src, false); reach.Visited < 2 {
			t.Fatal("query reached nothing")
		}
		snap.Close()
		live := int64(liveHeap()) - int64(base) - int64(held())
		runtime.KeepAlive(st)
		return live
	}
	none := func() uint64 { return 0 }

	memEngine := drive(func() (stream.Store[aspen.Edge], func() uint64) {
		return stream.NewGraphEngine(aspen.NewGraph(p), stream.Options{}).Store(), none
	})
	durEngine := drive(func() (stream.Store[aspen.Edge], func() uint64) {
		e, err := stream.RecoverGraphEngine(p, stream.Options{}, stream.Durability{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		return e.Store(), none
	})
	if tax := durEngine - memEngine; tax > slack {
		t.Errorf("durable engine holds %d bytes more than the in-memory one after the same traffic, bound %d", tax, slack)
	}

	part := shard.NewRangePartitioner(2, 1<<16)
	memCluster := drive(func() (stream.Store[aspen.Edge], func() uint64) {
		r := &routedEngines{part: part}
		for range part.Shards() {
			r.engines = append(r.engines, stream.NewGraphEngine(aspen.NewGraph(p), stream.Options{}))
		}
		return r, none
	})
	wire := drive(func() (stream.Store[aspen.Edge], func() uint64) {
		addrs := make([]string, part.Shards())
		for s := range addrs {
			eng, err := stream.RecoverGraphEngine(p, stream.Options{}, stream.Durability{Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			srv := NewGraphServer(eng, p, "", s, part.Shards())
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go srv.Serve(ln)
			t.Cleanup(func() { srv.Close(); eng.Close() })
			addrs[s] = ln.Addr().String()
		}
		c, err := DialGraph(part, addrs, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// The client's copy of the graph is data, not tax: each shard's
		// CSR is its degree, offset and neighbor arrays.
		return c.Store(), func() (views uint64) {
			c.vmu.Lock()
			defer c.vmu.Unlock()
			for _, cv := range c.views {
				v := cv.base()
				views += 4*uint64(len(v.degs)) + 8*uint64(len(v.offs)) + 4*uint64(len(v.nbrs))
			}
			return views
		}
	})
	if tax := wire - memCluster; tax > slack {
		t.Errorf("loopback cluster holds %d bytes beyond two in-process engines and its own views after the same traffic, bound %d", tax, slack)
	}
	// The traffic itself is part of every baseline above; keep it so.
	runtime.KeepAlive(preload)
	runtime.KeepAlive(batches)
	t.Logf("live beyond baseline: engine %d, +WAL %d, 2 routed engines %d, +WAL+wire (less client views) %d", memEngine, durEngine, memCluster, wire)
}

// routedEngines is the in-memory baseline of a sharded deployment: one
// engine per shard of part, fed by Route, read through their flat views
// stitched, the last stitch kept as the remote client keeps its own. Only
// what TestFootprintAfterPreload drives is implemented; the embedded nil
// Store and Snapshot stand for the rest.
type routedEngines struct {
	stream.Store[aspen.Edge]
	part    shard.Partitioner
	engines []*stream.Engine[aspen.Graph, aspen.Edge]
	last    ligra.Graph
}

func (r *routedEngines) Submit(del bool, edges []aspen.Edge) error {
	for s, sub := range shard.Route(r.part, edges, shard.EdgeSource) {
		if len(sub) == 0 {
			continue
		}
		if err := r.engines[s].Store().Submit(del, sub); err != nil {
			return err
		}
	}
	return nil
}

func (r *routedEngines) Flush() ([]uint64, error) {
	stamps := make([]uint64, len(r.engines))
	for s, e := range r.engines {
		stamp, err := e.Flush()
		if err != nil {
			return nil, err
		}
		stamps[s] = stamp
	}
	return stamps, nil
}

func (r *routedEngines) Pin() (stream.Snapshot, error) {
	txs := make([]stream.Tx[aspen.Graph], len(r.engines))
	for s, e := range r.engines {
		txs[s] = e.Begin()
	}
	return routedSnapshot{r: r, txs: txs}, nil
}

func (r *routedEngines) Close() {
	for _, e := range r.engines {
		e.Close()
	}
}

type routedSnapshot struct {
	stream.Snapshot
	r   *routedEngines
	txs []stream.Tx[aspen.Graph]
}

func (s routedSnapshot) Flat() (ligra.Graph, error) {
	views := make([]ligra.Graph, len(s.txs))
	for i := range s.txs {
		views[i] = s.txs[i].Flat()
	}
	s.r.last = shard.Stitch(s.r.part, s.r.last, views, nil)
	return s.r.last, nil
}

func (s routedSnapshot) Close() {
	for i := range s.txs {
		s.txs[i].Close()
	}
}
