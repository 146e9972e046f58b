package remote

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/aspen"
	"repro/internal/faults"
	"repro/internal/rmat"
	"repro/internal/rpc"
	"repro/internal/shard"
	"repro/internal/stream"
	"repro/internal/wal"
)

// chaosOpts are aggressive-timing client options so fault tests converge
// in test time rather than production time.
func chaosOpts() Options {
	return Options{
		DialWait:          2 * time.Second,
		DialTimeout:       500 * time.Millisecond,
		RPCDeadline:       5 * time.Second,
		SubmitAckDeadline: 10 * time.Second,
		RetryDeadline:     30 * time.Second,
		Backoff:           Backoff{Base: 2 * time.Millisecond, Max: 25 * time.Millisecond},
		BreakerCooldown:   10 * time.Millisecond,
	}
}

// applyOps folds an op schedule into the single-graph reference.
func applyOps(g aspen.Graph, ops []op) aspen.Graph {
	for _, o := range ops {
		if o.del {
			g = g.DeleteEdges(o.edges)
		} else {
			g = g.InsertEdges(o.edges)
		}
	}
	return g
}

// TestDedupWindow unit-tests the exactly-once table: verdicts, waiter
// delivery, window eviction (stopping at in-flight entries), and the
// promotion fence.
func TestDedupWindow(t *testing.T) {
	d := NewDedup(4)
	const cid = 7

	// First sighting is new; a concurrent duplicate parks as a waiter
	// and fires with the commit stamp.
	if v, _ := d.begin(cid, 1, nil); v != dupNew {
		t.Fatalf("first begin = %v, want new", v)
	}
	var gotStamp atomic.Uint64
	var gotMsg atomic.Value
	if v, _ := d.begin(cid, 1, func(stamp uint64, msg string) {
		gotStamp.Store(stamp)
		gotMsg.Store(msg)
	}); v != dupInflight {
		t.Fatalf("duplicate of in-flight = %v, want inflight", v)
	}
	d.complete(cid, 1, 42)
	if gotStamp.Load() != 42 || gotMsg.Load().(string) != "" {
		t.Fatalf("waiter got (%d, %q), want (42, \"\")", gotStamp.Load(), gotMsg.Load())
	}
	if v, stamp := d.begin(cid, 1, nil); v != dupDone || stamp != 42 {
		t.Fatalf("retry after commit = (%v, %d), want (done, 42)", v, stamp)
	}

	// abort forgets the entry (a later retry is new again) and fails
	// its waiters.
	if v, _ := d.begin(cid, 2, nil); v != dupNew {
		t.Fatal("seq 2 not new")
	}
	var aborted atomic.Value
	d.begin(cid, 2, func(_ uint64, msg string) { aborted.Store(msg) })
	d.abort(cid, 2, "refused")
	if aborted.Load().(string) != "refused" {
		t.Fatalf("abort waiter got %q", aborted.Load())
	}
	if v, _ := d.begin(cid, 2, nil); v != dupNew {
		t.Fatal("retry after abort should be new")
	}
	d.complete(cid, 2, 43)

	// Completing far past the window evicts old seqs...
	for seq := uint64(3); seq <= 10; seq++ {
		if v, _ := d.begin(cid, seq, nil); v != dupNew {
			t.Fatalf("seq %d not new", seq)
		}
		d.complete(cid, seq, 40+seq)
	}
	if v, _ := d.begin(cid, 3, nil); v != dupEvicted {
		t.Fatalf("ancient retry = %v, want evicted", v)
	}
	if v, stamp := d.begin(cid, 9, nil); v != dupDone || stamp != 49 {
		t.Fatalf("in-window retry = (%v, %d), want (done, 49)", v, stamp)
	}

	// ...but eviction never advances past an unresolved in-flight entry.
	const cid2 = 8
	if v, _ := d.begin(cid2, 1, nil); v != dupNew {
		t.Fatal("cid2 seq 1 not new")
	}
	for seq := uint64(2); seq <= 10; seq++ {
		d.complete(cid2, seq, seq)
	}
	if v, _ := d.begin(cid2, 1, nil); v != dupInflight {
		t.Fatalf("in-flight entry was evicted: %v", v)
	}
	d.complete(cid2, 1, 99)
	if v, _ := d.begin(cid2, 2, nil); v != dupEvicted {
		t.Fatalf("eviction did not resume after the in-flight entry resolved: %v", v)
	}

	// Observe is a journal-replayed completion: done with stamp 0.
	d.Observe(cid, 11)
	if v, stamp := d.begin(cid, 11, nil); v != dupDone || stamp != 0 {
		t.Fatalf("observed seq = (%v, %d), want (done, 0)", v, stamp)
	}

	// The promotion fence refuses unknown seqs at or below the highest
	// completed one, while completed entries stay answerable.
	d.fenceAll()
	if v, _ := d.begin(cid, 6, nil); v != dupFenced {
		t.Fatalf("unknown pre-fence seq = %v, want fenced", v)
	}
	if v, _ := d.begin(cid, 11, nil); v != dupDone {
		t.Fatal("completed entry lost at the fence")
	}
	if v, _ := d.begin(cid, 12, nil); v != dupNew {
		t.Fatal("post-fence seq should be new")
	}
}

// TestSubmitRetriesAfterConnDrop churns connections under the client
// with swallowed writes and severed connections; every batch must still
// commit exactly once and the final graph must match the fault-free
// reference.
func TestSubmitRetriesAfterConnDrop(t *testing.T) {
	part := shard.NewRangePartitioner(2, 1<<9)
	_, addrs := startServers(t, part, false)
	tr := faults.NewTransport()
	o := chaosOpts()
	o.Dialer = tr.Dialer(nil)
	c, err := DialGraph(part, addrs, nil, o)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ops := randomOps(1<<9, 12, 400, 7)
	var pendings []*Pending
	for i, o := range ops {
		switch i % 4 {
		case 1:
			tr.DropNext(1)
		case 3:
			tr.KillAll()
		}
		var p *Pending
		var err error
		if o.del {
			p, err = c.Delete(o.edges)
		} else {
			p, err = c.Insert(o.edges)
		}
		if err != nil {
			t.Fatal(err)
		}
		pendings = append(pendings, p)
	}
	for _, p := range pendings {
		if err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	tr.ClearScheduled()
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
	checkAgainst(t, applyOps(aspen.NewGraph(testParams()), ops), flat)
	st := c.Stats()
	if st.Retries == 0 {
		t.Fatalf("connection churn caused no retries: %+v", st)
	}
	if _, drops, _, _ := tr.Stats(); drops == 0 {
		t.Fatal("transport swallowed no writes; the fault schedule never fired")
	}
}

// TestExactlyOnceAckLost severs the connection after the server commits
// but before the ack reaches the client — the classic duplicate-submit
// shape. The retried batch must be answered from the dedup window
// (FlagDeduped), never re-applied, which the WAL's idempotency notes
// prove record by record.
func TestExactlyOnceAckLost(t *testing.T) {
	part := shard.NewRangePartitioner(2, 1<<9)
	servers, addrs := startServers(t, part, true)
	t.Cleanup(func() { faults.Clear("remote.submit.ack") })
	c, err := DialGraph(part, addrs, nil, chaosOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ops := randomOps(1<<9, 10, 300, 77)
	var pendings []*Pending
	for i, o := range ops {
		if i%2 == 0 {
			// Drop the next commit ack: the server applies the batch,
			// notes it in the window, then kills the connection.
			faults.Set("remote.submit.ack", 0, 1, nil)
		}
		var p *Pending
		var err error
		if o.del {
			p, err = c.Delete(o.edges)
		} else {
			p, err = c.Insert(o.edges)
		}
		if err != nil {
			t.Fatal(err)
		}
		pendings = append(pendings, p)
	}
	for _, p := range pendings {
		if err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	faults.Clear("remote.submit.ack")
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
	checkAgainst(t, applyOps(aspen.NewGraph(testParams()), ops), flat)
	st := c.Stats()
	if st.DedupAcks == 0 {
		t.Fatalf("no retried submit was answered from the dedup window: %+v", st)
	}
	if st.Retries == 0 {
		t.Fatalf("lost acks caused no retries: %+v", st)
	}

	// Every idempotency note in every shard's WAL must be unique: a
	// duplicate note is a re-applied batch.
	for s, ts := range servers {
		if err := ts.eng.SyncWAL(); err != nil {
			t.Fatal(err)
		}
		seen := make(map[[2]uint64]uint64)
		noted := 0
		if _, err := wal.Replay(ts.dir, 0, func(r wal.Record) error {
			_, notes, err := stream.DecodeCommit(stream.EdgeCodec, r)
			if err != nil {
				return err
			}
			for _, n := range notes {
				noted++
				key := [2]uint64{n.Client, n.Seq}
				if prev, dup := seen[key]; dup {
					t.Fatalf("shard %d: note (client %d, seq %d) applied at WAL seq %d and again at %d",
						s, key[0], key[1], prev, r.Seq)
				}
				seen[key] = r.Seq
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if noted == 0 {
			t.Fatalf("shard %d logged no idempotency notes", s)
		}
	}
}

// TestChaosDifferential drives a durable two-shard cluster through the
// whole fault menu — swallowed, duplicated, truncated and delayed
// writes, severed connections, a brief full partition — and checks the
// committed result against a fault-free single-graph reference.
func TestChaosDifferential(t *testing.T) {
	part := shard.NewRangePartitioner(2, 1<<9)
	_, addrs := startServers(t, part, true)
	tr := faults.NewTransport()
	o := chaosOpts()
	o.Dialer = tr.Dialer(nil)
	c, err := DialGraph(part, addrs, nil, o)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ops := randomOps(1<<9, 24, 300, 99)
	var pendings []*Pending
	for i, o := range ops {
		switch i % 6 {
		case 0:
			tr.DropNext(1)
		case 1:
			tr.DuplicateNext(2)
		case 2:
			tr.TruncateNext(1)
		case 4:
			tr.KillAll()
		case 5:
			tr.Delay(time.Millisecond)
		}
		if i == len(ops)/2 {
			tr.Partition(true)
		}
		var p *Pending
		var err error
		if o.del {
			p, err = c.Delete(o.edges)
		} else {
			p, err = c.Insert(o.edges)
		}
		if err != nil {
			t.Fatal(err)
		}
		pendings = append(pendings, p)
		if i == len(ops)/2 {
			time.Sleep(50 * time.Millisecond) // let retries pile up against the partition
			tr.Partition(false)
		}
	}
	tr.Delay(0)
	for _, p := range pendings {
		if err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	tr.ClearScheduled()
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
	checkAgainst(t, applyOps(aspen.NewGraph(testParams()), ops), flat)
	st := c.Stats()
	if st.Retries == 0 {
		t.Fatalf("chaos schedule caused no retries: %+v", st)
	}
	dials, drops, dups, truncs := tr.Stats()
	t.Logf("chaos: %d dials, %d drops, %d dups, %d truncs; client %+v", dials, drops, dups, truncs, st)
}

// TestPromotionFailover kills the primary under a replicated shard and
// proves the pipeline survives: the replica promotes itself after
// sustained primary loss, the client's health prober fails the submit
// stream over to it, and post-failover submits + reads land on the
// promoted replica with nothing lost or doubled.
func TestPromotionFailover(t *testing.T) {
	part := shard.NewRangePartitioner(1, 1<<9)
	servers, addrs := startServers(t, part, true)

	ro := Options{
		PromoteAfter: 300 * time.Millisecond,
		DialTimeout:  200 * time.Millisecond,
		Backoff:      Backoff{Base: 5 * time.Millisecond, Max: 25 * time.Millisecond},
	}
	repl := NewGraphReplica[struct{}](addrs[0], testParams(), 0, 1, ro)
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go repl.Serve(rln)
	t.Cleanup(repl.Close)

	co := chaosOpts()
	co.ProbeInterval = 20 * time.Millisecond
	co.BreakerThreshold = 2
	c, err := DialGraph(part, addrs, []string{rln.Addr().String()}, co)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ops := randomOps(1<<9, 6, 300, 55)
	phase1, phase2 := ops[:3], ops[3:]
	for _, o := range phase1 {
		p, err := c.Insert(o.edges)
		if o.del {
			p, err = c.Delete(o.edges)
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
	// Quiesce: the replica must hold everything before the primary dies,
	// or the promoted state would legitimately miss data.
	want := servers[0].eng.WALSeq()
	for i := 0; i < 600 && repl.Applied() < want; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	if repl.Applied() < want {
		t.Fatalf("replica stuck at %d, want %d", repl.Applied(), want)
	}

	servers[0].srv.Close()
	servers[0].eng.Close()

	var pendings []*Pending
	for _, o := range phase2 {
		var p *Pending
		var err error
		if o.del {
			p, err = c.Delete(o.edges)
		} else {
			p, err = c.Insert(o.edges)
		}
		if err != nil {
			t.Fatal(err)
		}
		pendings = append(pendings, p)
	}
	for _, p := range pendings {
		if err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Barrier(); err != nil {
		t.Fatal(err)
	}
	if !repl.Promoted() {
		t.Fatal("replica never promoted")
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
	checkAgainst(t, applyOps(aspen.NewGraph(testParams()), ops), flat)
	st := c.Stats()
	if st.Failovers == 0 || st.Promotions == 0 {
		t.Fatalf("no observed failover: %+v", st)
	}
	if st.DegradedPins == 0 {
		t.Fatalf("post-failover read did not pin the replica: %+v", st)
	}
	if rs := repl.Stats(); !rs.Promoted || rs.Submits == 0 {
		t.Fatalf("promoted replica served no submits: %+v", rs)
	}
}

// TestDegradedStaleReads kills the only shard of a replica-less cluster
// and proves Begin degrades to the bounded-stale cached view instead of
// failing, within Options.MaxStaleness.
func TestDegradedStaleReads(t *testing.T) {
	part := shard.NewRangePartitioner(1, 1<<9)
	servers, addrs := startServers(t, part, false)
	o := chaosOpts()
	o.BreakerThreshold = 1
	o.BreakerCooldown = time.Minute // stay fast-failed for the whole test
	o.MaxStaleness = time.Hour
	c, err := DialGraph(part, addrs, nil, o)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	batch := aspen.MakeUndirected(rmat.NewGenerator(9, 3).Edges(0, 2_000))
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
	flat, err := tx.Flat()
	if err != nil {
		t.Fatal(err)
	}
	wantEdges := flat.NumEdges()
	tx.Close()

	servers[0].srv.Close()
	servers[0].eng.Close()

	tx2, err := c.Begin()
	if err != nil {
		t.Fatalf("Begin should degrade to the cached view, got %v", err)
	}
	defer tx2.Close()
	flat2, err := tx2.Flat()
	if err != nil {
		t.Fatal(err)
	}
	if flat2.NumEdges() != wantEdges {
		t.Fatalf("stale view has %d edges, want %d", flat2.NumEdges(), wantEdges)
	}
	st := c.Stats()
	if st.StaleReads == 0 {
		t.Fatalf("degraded read not accounted: %+v", st)
	}
}

// TestBreakerFastFail proves a dead endpoint trips the circuit breaker:
// after BreakerThreshold consecutive failures the endpoint is down and
// further operations are refused instantly instead of re-dialing.
func TestBreakerFastFail(t *testing.T) {
	part := shard.NewRangePartitioner(1, 1<<9)
	servers, addrs := startServers(t, part, false)
	o := chaosOpts()
	o.BreakerThreshold = 2
	o.BreakerCooldown = time.Minute
	c, err := DialGraph(part, addrs, nil, o)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Insert([]aspen.Edge{{Src: 1, Dst: 2}, {Src: 2, Dst: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Barrier(); err != nil {
		t.Fatal(err)
	}
	servers[0].srv.Close()
	servers[0].eng.Close()

	// Only failed dials count against the breaker, and the first Begin
	// after the kill may still ride the not-yet-torn-down connection —
	// keep failing until the breaker trips and fast-fails.
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().BreakerFastFails == 0 && time.Now().Before(deadline) {
		if _, err := c.Begin(); err == nil {
			t.Fatal("Begin succeeded against a dead shard with no fallback")
		}
	}
	st := c.Stats()
	if st.Suspects == 0 || st.BreakerOpens == 0 {
		t.Fatalf("breaker never opened: %+v", st)
	}
	if st.BreakerFastFails == 0 {
		t.Fatalf("open breaker did not fast-fail: %+v", st)
	}
}

// TestReplicaChurnFallback (issue satellite) kills and restarts the
// replica mid-sweep: every read must be served — replica when up,
// primary fallback when not — with the two counters accounting for
// every fetch and no error ever surfacing.
func TestReplicaChurnFallback(t *testing.T) {
	part := shard.NewRangePartitioner(1, 1<<9)
	servers, addrs := startServers(t, part, true)

	repl := NewGraphReplica[struct{}](addrs[0], testParams(), 0, 1, Options{})
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	raddr := rln.Addr().String()
	go repl.Serve(rln)
	t.Cleanup(repl.Close)

	o := chaosOpts()
	o.BreakerThreshold = 2
	o.BreakerCooldown = 5 * time.Millisecond
	c, err := DialGraph(part, addrs, []string{raddr}, o)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ref := aspen.NewGraph(testParams())
	var repl2 *Replica[aspen.Graph, aspen.Edge]
	read := func() {
		t.Helper()
		tx, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		defer tx.Close()
		if _, err := tx.Flat(); err != nil {
			t.Fatal(err)
		}
	}
	for i, op := range randomOps(1<<9, 12, 300, 13) {
		if op.del {
			ref = ref.DeleteEdges(op.edges)
			if _, err := c.Delete(op.edges); err != nil {
				t.Fatal(err)
			}
		} else {
			ref = ref.InsertEdges(op.edges)
			if _, err := c.Insert(op.edges); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Barrier(); err != nil {
			t.Fatal(err)
		}
		read()
		switch i {
		case 4:
			repl.Close() // mid-sweep: reads must fall back to the primary
		case 8:
			// Restart on the same address; the client's replica
			// connection redials it transparently.
			var rln2 net.Listener
			for j := 0; j < 200; j++ {
				if rln2, err = net.Listen("tcp", raddr); err == nil {
					break
				}
				time.Sleep(5 * time.Millisecond)
			}
			if rln2 == nil {
				t.Fatalf("could not rebind %s: %v", raddr, err)
			}
			repl2 = NewGraphReplica[struct{}](addrs[0], testParams(), 0, 1, Options{})
			go repl2.Serve(rln2)
			t.Cleanup(repl2.Close)
		}
	}
	// Wait out the restarted replica's catch-up and breaker cooldown,
	// then read until the replica serves again.
	want := servers[0].eng.WALSeq()
	for i := 0; i < 600 && repl2.Applied() < want; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().ReplicaReads == 0 && time.Now().Before(deadline) {
		read()
		time.Sleep(10 * time.Millisecond)
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
	checkAgainst(t, ref, flat)
	st := c.Stats()
	if st.ReplicaReads == 0 {
		t.Fatalf("replica served no reads: %+v", st)
	}
	if st.PrimaryFallbacks == 0 {
		t.Fatalf("replica downtime caused no primary fallbacks: %+v", st)
	}
	if st.ViewFetches != st.ReplicaReads+st.PrimaryFallbacks {
		t.Fatalf("unaccounted view fetches: %d fetches, %d replica + %d fallback",
			st.ViewFetches, st.ReplicaReads, st.PrimaryFallbacks)
	}
}

// TestDeltaReadsUnderFaults is the chaos half of the promise: a delta
// request that is lost, sent twice, or cut off by a reset never yields a
// wrong view. The read either fails (and its retry, on a new connection
// with the base pin gone, is a counted fallback) or returns the model
// graph. Rows: deltas served by the primaries, and by a read replica.
func TestDeltaReadsUnderFaults(t *testing.T) {
	for _, row := range []string{"primary", "replica"} {
		t.Run(row, func(t *testing.T) {
			part := shard.NewRangePartitioner(1, 1<<9)
			servers, addrs := startServers(t, part, true)
			var replicas []string
			var repl *Replica[aspen.Graph, aspen.Edge]
			if row == "replica" {
				repl = NewGraphReplica[struct{}](addrs[0], testParams(), 0, 1, Options{})
				rln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				go repl.Serve(rln)
				t.Cleanup(repl.Close)
				replicas = []string{rln.Addr().String()}
			}
			tr := faults.NewTransport()
			o := chaosOpts()
			o.Dialer = tr.Dialer(nil)
			c, err := DialGraph(part, addrs, replicas, o)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			model := aspen.NewGraph(testParams())
			seedEdges := aspen.MakeUndirected(rmat.NewGenerator(9, 21).Edges(0, 4_000))
			model = model.InsertEdges(seedEdges)
			if _, err := c.Insert(seedEdges); err != nil {
				t.Fatal(err)
			}
			faultsHit := 0
			for i, op := range randomOps(1<<9, 30, 40, 77) {
				if op.del {
					model = model.DeleteEdges(op.edges)
					_, err = c.Delete(op.edges)
				} else {
					model = model.InsertEdges(op.edges)
					_, err = c.Insert(op.edges)
				}
				if err != nil {
					t.Fatal(err)
				}
				if err := c.Barrier(); err != nil {
					t.Fatal(err)
				}
				if repl != nil {
					// The read must reach the replica for its scheduled fault
					// to hit a replica read: wait out the tail's lag, or the
					// read falls back to the primary before the fault fires.
					want := servers[0].eng.WALSeq()
					for k := 0; k < 600 && repl.Applied() < want; k++ {
						time.Sleep(5 * time.Millisecond)
					}
					if repl.Applied() < want {
						t.Fatalf("step %d: replica stuck at %d, want %d", i, repl.Applied(), want)
					}
				}
				before := c.Stats()
				for attempt := 0; ; attempt++ {
					if attempt == 20 {
						t.Fatalf("step %d: no read succeeded in 20 attempts", i)
					}
					tx, err := c.Begin()
					if err != nil {
						continue
					}
					if attempt == 0 && i > 0 {
						// The pin is in; the next frame out is the delta request.
						switch i % 4 {
						case 1:
							tr.DropNext(1)
						case 2:
							tr.DuplicateNext(1)
						case 3:
							tr.KillAll()
						}
					}
					flat, err := tx.Flat()
					if err != nil {
						tx.Close()
						continue
					}
					if d := copyView(flat).diff(copyView(model)); d != "" {
						t.Fatalf("step %d (fault %d, attempt %d): wrong view: %s", i, i%4, attempt, d)
					}
					tx.Close()
					break
				}
				st := c.Stats()
				if i > 0 && (i%4 == 1 || i%4 == 3) {
					faultsHit++
					if st.DeltaFallbacks == before.DeltaFallbacks {
						t.Fatalf("step %d: a lost delta / reset read back without a counted fallback: %+v", i, st)
					}
				}
			}
			tr.ClearScheduled()
			st := c.Stats()
			if st.DeltaReads == 0 || st.DeltaVerifyFailed != 0 || st.DeltaNoBase < uint64(faultsHit) {
				t.Fatalf("%d lost or reset reads: %+v", faultsHit, st)
			}
			if row == "replica" && st.ReplicaReads == 0 {
				t.Fatalf("replica served nothing: %+v", st)
			}
			t.Logf("%s: %d delta reads, %d no-base fallbacks, %d replica reads, %d primary fallbacks",
				row, st.DeltaReads, st.DeltaNoBase, st.ReplicaReads, st.PrimaryFallbacks)
		})
	}
}

// submitEncodeOp is the op of BenchmarkSubmitEncode and its allocation
// gate: the healthy-path submit frame encode — the (clientID, seq)
// identity plus the edge payload. The hot ingest path must not allocate.
func submitEncodeOp(tb testing.TB) func() {
	codec := stream.EdgeCodec
	w := codec.Width
	chunk := aspen.MakeUndirected(rmat.NewGenerator(10, 3).Edges(0, 256))
	var enc rpc.Encoder
	var reqID uint64
	encodeOne := func() {
		enc.Begin(rpc.VerbSubmit, 0, reqID)
		enc.U64(0xdeadbeef | 1)
		enc.U64(reqID)
		enc.U32(uint32(len(chunk)))
		buf := enc.Reserve(w * len(chunk))
		for i, ed := range chunk {
			codec.Encode(buf[i*w:], ed)
		}
		if _, err := enc.Finish(); err != nil {
			tb.Fatal(err)
		}
		reqID++
	}
	encodeOne() // warm the grow-only buffer
	return encodeOne
}

// dedupCheckOp is the op of BenchmarkDedupCheck and its allocation gate:
// the retried-submit dedup verdict — the path a duplicate ack is answered
// from.
func dedupCheckOp(tb testing.TB) func() {
	d := NewDedup(0)
	d.complete(7, 1, 42)
	return func() {
		if v, stamp := d.begin(7, 1, nil); v != dupDone || stamp != 42 {
			tb.Fatalf("verdict (%v, %d)", v, stamp)
		}
	}
}

func benchOp(b *testing.B, op func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func BenchmarkSubmitEncode(b *testing.B) { benchOp(b, submitEncodeOp(b)) }
func BenchmarkDedupCheck(b *testing.B)   { benchOp(b, dedupCheckOp(b)) }
