package remote

import (
	"bufio"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/aspen"
	"repro/internal/rpc"
	"repro/internal/shard"
	"repro/internal/stream"
)

// rawConn speaks frames to one shard endpoint with nothing of the client
// in between: one request, one response.
type rawConn struct {
	t   *testing.T
	nc  net.Conn
	bw  *bufio.Writer
	rd  *rpc.Reader
	enc rpc.Encoder
	id  uint64
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &rawConn{t: t, nc: nc, bw: bufio.NewWriter(nc), rd: rpc.NewReader(bufio.NewReader(nc))}
}

// call sends one request and returns its response. body sees the body of
// the previous response on this connection (nil before the first).
func (c *rawConn) call(r roleReq, prev []byte) rpc.Msg {
	c.t.Helper()
	c.id++
	c.enc.Begin(r.verb, r.flags, c.id)
	if r.body != nil {
		r.body(&c.enc, prev)
	}
	if _, err := c.enc.WriteTo(c.bw); err != nil {
		c.t.Fatal(err)
	}
	if err := c.bw.Flush(); err != nil {
		c.t.Fatal(err)
	}
	c.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	m, err := c.rd.Next()
	if err != nil {
		c.t.Fatalf("%v: no response: %v", r.verb, err)
	}
	if m.ReqID != c.id || m.Flags&rpc.FlagResp == 0 {
		c.t.Fatalf("%v: response id %d flags %#x, want id %d", r.verb, m.ReqID, m.Flags, c.id)
	}
	return m
}

// roleReq is one request frame of a role-table row.
type roleReq struct {
	verb  rpc.Verb
	flags uint8
	body  func(e *rpc.Encoder, prev []byte)
}

// hello is a Hello body; the test endpoints are shard 0 of 1, unweighted.
func hello(proto uint32, shard, shards uint32, weighted uint8) roleReq {
	return roleReq{verb: rpc.VerbHello, body: func(e *rpc.Encoder, _ []byte) {
		e.U32(proto)
		e.U32(shard)
		e.U32(shards)
		e.U8(weighted)
	}}
}

// readReq is a VerbRead of ref from the empty version; ref < 0 reads the
// stamp the previous response (a pin) answered with.
func readReq(flags uint8, ref int64) roleReq {
	return roleReq{verb: rpc.VerbRead, flags: flags, body: func(e *rpc.Encoder, prev []byte) {
		if ref < 0 {
			d := rpc.NewBody(prev)
			e.U64(d.U64())
		} else {
			e.U64(uint64(ref))
		}
		e.U32(0)
		e.U64(0)
	}}
}

// submitReq is an un-noted one-edge insert; extra appends trailing bytes.
func submitReq(extra int) roleReq {
	return roleReq{verb: rpc.VerbSubmit, body: func(e *rpc.Encoder, _ []byte) {
		e.U64(0)
		e.U64(0)
		e.U32(1)
		e.U32(3)
		e.U32(4)
		for i := 0; i < extra; i++ {
			e.U8(0)
		}
	}}
}

// TestRoleTable pins which verbs each shard endpoint role accepts: a
// primary, its replica, and a promoted replica. Each row runs on a fresh
// connection; want holds one letter per response for each role, 'o' for
// served, 'e' for an error response and 'l' for an error flagged lagging.
func TestRoleTable(t *testing.T) {
	part := shard.NewRangePartitioner(1, 1<<10)
	_, addrs := startServers(t, part, true)

	serve := func(r *Replica[aspen.Graph, aspen.Edge]) string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go r.Serve(ln)
		t.Cleanup(r.Close)
		return ln.Addr().String()
	}
	replica := serve(NewGraphReplica(addrs[0], testParams(), 0, 1, 0, Options{}))
	// A promoted replica of a primary that never answered: nothing but its
	// own submits moves it.
	promoted := NewGraphReplica("127.0.0.1:1", testParams(), 0, 1, 0, Options{})
	promoted.promote()
	endpoints := [3]string{addrs[0], replica, serve(promoted)}

	good := hello(rpc.ProtoVersion, 0, 1, 0)
	unknown := roleReq{verb: rpc.Verb(200)}
	health := roleReq{verb: rpc.VerbHealth}
	rows := []struct {
		name  string
		hello bool // a good Hello first, its response not checked
		reqs  []roleReq
		want  [3]string // primary, replica, promoted
	}{
		{"hello", false, []roleReq{good}, [3]string{"o", "o", "o"}},
		{"hello wrong proto", false, []roleReq{hello(rpc.ProtoVersion+1, 0, 1, 0)}, [3]string{"e", "e", "e"}},
		{"hello wrong shard", false, []roleReq{hello(rpc.ProtoVersion, 1, 1, 0)}, [3]string{"e", "e", "e"}},
		{"hello wrong shard count", false, []roleReq{hello(rpc.ProtoVersion, 0, 2, 0)}, [3]string{"e", "e", "e"}},
		{"hello wrong weighted", false, []roleReq{hello(rpc.ProtoVersion, 0, 1, 1)}, [3]string{"e", "e", "e"}},
		{"submit", true, []roleReq{submitReq(0)}, [3]string{"o", "e", "o"}},
		{"submit trailing bytes", true, []roleReq{submitReq(3)}, [3]string{"e", "e", "e"}},
		{"flush", true, []roleReq{{verb: rpc.VerbFlush}}, [3]string{"o", "e", "o"}},
		{"pin then stamp read", true, []roleReq{{verb: rpc.VerbPin}, readReq(0, -1)}, [3]string{"oo", "oe", "oe"}},
		{"by-seq read", true, []roleReq{readReq(rpc.FlagBySeq, 1<<40)}, [3]string{"e", "l", "l"}},
		{"release unpinned", true, []roleReq{{verb: rpc.VerbRelease, body: func(e *rpc.Encoder, _ []byte) { e.U64(1 << 40) }}}, [3]string{"e", "o", "o"}},
		{"health", true, []roleReq{health}, [3]string{"o", "o", "o"}},
		{"stats", true, []roleReq{{verb: rpc.VerbStats}}, [3]string{"o", "o", "o"}},
		{"tail", true, []roleReq{{verb: rpc.VerbTail, body: func(e *rpc.Encoder, _ []byte) { e.U64(0) }}}, [3]string{"o", "e", "e"}},
		{"unknown verb then health", true, []roleReq{unknown, health}, [3]string{"eo", "eo", "eo"}},
	}
	roles := [3]string{"primary", "replica", "promoted"}
	for _, row := range rows {
		for i, addr := range endpoints {
			c := dialRaw(t, addr)
			if row.hello {
				if m := c.call(good, nil); m.Flags&rpc.FlagErr != 0 {
					t.Fatalf("%s: %s refused a good hello: %s", row.name, roles[i], m.Body)
				}
			}
			var prev []byte
			for j, r := range row.reqs {
				m := c.call(r, prev)
				got := byte('o')
				switch {
				case m.Flags&rpc.FlagLagging != 0:
					got = 'l'
				case m.Flags&rpc.FlagErr != 0:
					got = 'e'
				}
				if want := row.want[i][j]; got != want {
					t.Errorf("%s: %s answered request %d (%v) with %c, want %c (body %q)", row.name, roles[i], j, r.verb, got, want, m.Body)
				}
				prev = append(prev[:0], m.Body...)
			}
			c.nc.Close()
		}
	}
}

// TestPinSeqMatchesStamp holds a commit between its WAL append and its
// publication — the primary's fsync is paused — and pins through a
// cluster whose shard has a replica. The replica already holds the
// held commit's records (the tail ships them at append time), so a pin
// must name the seq of the version it pinned: a read addressed by a later
// seq would show a commit the pinned version does not have. The pin must
// not wait for the fsync either.
func TestPinSeqMatchesStamp(t *testing.T) {
	var armed atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	dir := t.TempDir()
	eng, err := stream.RecoverGraphEngine(testParams(), stream.Options{}, stream.Durability{
		Dir: dir,
		Fail: func(op string) error {
			if op == "sync" && armed.CompareAndSwap(true, false) {
				close(entered)
				<-release
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	released := false
	unpause := func() {
		if !released {
			released = true
			close(release)
		}
	}
	srv := NewGraphServer(eng, testParams(), dir, 0, 1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		unpause()
		srv.Close()
		eng.Close()
	})
	repl := NewGraphReplica(ln.Addr().String(), testParams(), 0, 1, 0, Options{})
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go repl.Serve(rln)
	t.Cleanup(repl.Close)
	c, err := DialGraph(shard.NewRangePartitioner(1, 1<<10), []string{ln.Addr().String()}, []string{rln.Addr().String()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitApplied := func(seq uint64) {
		t.Helper()
		for i := 0; i < 1000 && repl.Applied() < seq; i++ {
			time.Sleep(2 * time.Millisecond)
		}
		if got := repl.Applied(); got < seq {
			t.Fatalf("replica applied %d, want %d", got, seq)
		}
	}

	// Commit A: one undirected edge, stamp 1, WAL seq 1.
	if _, err := c.Insert(aspen.MakeUndirected([]aspen.Edge{{Src: 1, Dst: 2}})); err != nil {
		t.Fatal(err)
	}
	if err := c.Barrier(); err != nil {
		t.Fatal(err)
	}
	waitApplied(1)
	a := eng.Begin()
	wantEdges := a.Graph().NumEdges()
	a.Close()

	// Commit B: appended (and shipped) as seq 2, then held in its fsync.
	armed.Store(true)
	if _, err := eng.Insert(aspen.MakeUndirected([]aspen.Edge{{Src: 3, Dst: 4}, {Src: 5, Dst: 6}})); err != nil {
		t.Fatal(err)
	}
	<-entered
	waitApplied(2)

	type pinned struct {
		tx  *Tx[aspen.Edge]
		err error
	}
	began := make(chan pinned, 1)
	go func() {
		tx, err := c.Begin()
		began <- pinned{tx, err}
	}()
	var p pinned
	select {
	case p = <-began:
	case <-time.After(5 * time.Second):
		t.Error("the pin waited for a commit's fsync")
		unpause()
		p = <-began
	}
	unpause()
	if p.err != nil {
		t.Fatal(p.err)
	}
	defer p.tx.Close()
	stamp, seq := p.tx.Stamps()[0], p.tx.Seqs()[0]
	if stamp != 1 || seq != 1 {
		t.Fatalf("pinned stamp %d seq %d, want stamp 1 seq 1: the seq runs ahead of the version", stamp, seq)
	}
	flat, err := p.tx.Flat()
	if err != nil {
		t.Fatal(err)
	}
	if got := flat.NumEdges(); got != wantEdges {
		t.Fatalf("read of stamp %d (seq %d) holds %d edges, the version holds %d", stamp, seq, got, wantEdges)
	}
	if st := c.Stats(); st.ReplicaReads == 0 {
		t.Fatalf("the read was not served by the replica: %+v", st)
	}
}
