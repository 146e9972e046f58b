package stream

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/aspen"
	"repro/internal/graphio"
	"repro/internal/ligra"
	"repro/internal/wal"
	"repro/internal/xhash"
)

// durBatch deterministically generates the i-th test batch: mostly inserts
// with periodic deletes of earlier edges, mirroring UpdateScheduleMix at
// period 5.
func durBatch(i int) (del bool, edges []aspen.Edge) {
	r := xhash.NewRNG(uint64(1000 + i))
	del = i%5 == 4
	k := 8 + i%7
	edges = make([]aspen.Edge, 0, 2*k)
	for j := 0; j < k; j++ {
		src := uint32(r.Next() % 64)
		dst := uint32(r.Next() % 64)
		edges = append(edges, aspen.Edge{Src: src, Dst: dst}, aspen.Edge{Src: dst, Dst: src})
	}
	return del, edges
}

// prefixGraphs rebuilds the graphs after applying batches 0..j-1 for every
// j in [0, n] — the committed prefixes recovery may legally land on.
func prefixGraphs(n int) []aspen.Graph {
	out := make([]aspen.Graph, n+1)
	g := aspen.NewGraph(testParams())
	out[0] = g
	for i := 0; i < n; i++ {
		del, edges := durBatch(i)
		if del {
			g = g.DeleteEdges(edges)
		} else {
			g = g.InsertEdges(edges)
		}
		out[i+1] = g
	}
	return out
}

func testDurability(dir string) Durability {
	return Durability{
		Dir:             dir,
		Policy:          SyncEveryCommit,
		CheckpointEvery: 3,
		SegmentBytes:    2048, // force segment rotation under test loads
	}
}

// submitSerial pushes batches one at a time, waiting for each ack, and
// returns how many were acknowledged (stopping at the first nack).
func submitSerial(t *testing.T, e *Engine[aspen.Graph, aspen.Edge], n int) int {
	t.Helper()
	for i := 0; i < n; i++ {
		del, edges := durBatch(i)
		var p Pending
		var err error
		if del {
			p, err = e.Delete(edges)
		} else {
			p, err = e.Insert(edges)
		}
		if err != nil {
			return i
		}
		if p.Wait() == 0 {
			return i // nacked: durability failure
		}
	}
	return n
}

func TestDurableCleanRestart(t *testing.T) {
	dir := t.TempDir()
	d := testDurability(dir)
	e, err := RecoverGraphEngine(testParams(), Options{}, d)
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	if acked := submitSerial(t, e, n); acked != n {
		t.Fatalf("acked %d/%d batches", acked, n)
	}
	want := e.Begin()
	wantEdges := want.Graph().NumEdges()
	want.Close()
	e.Close()
	if err := e.Err(); err != nil {
		t.Fatalf("engine error after clean close: %v", err)
	}

	// A clean close leaves a final checkpoint; reopening must reproduce the
	// exact graph and keep serving.
	e2, err := RecoverGraphEngine(testParams(), Options{}, d)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	tx := e2.Begin()
	if got := tx.Graph().NumEdges(); got != wantEdges {
		t.Fatalf("recovered %d edges, want %d", got, wantEdges)
	}
	if !tx.Graph().Equal(prefixGraphs(n)[n]) {
		t.Fatal("recovered graph differs from the committed prefix")
	}
	tx.Close()
	// The recovered engine keeps committing durably.
	p, err := e2.Insert([]aspen.Edge{{Src: 200, Dst: 201}})
	if err != nil || p.Wait() == 0 {
		t.Fatalf("post-recovery insert failed: %v", err)
	}
}

func TestDurableWeightedRestart(t *testing.T) {
	dir := t.TempDir()
	d := testDurability(dir)
	e, err := RecoverWeightedEngine(testParams(), Options{}, d)
	if err != nil {
		t.Fatal(err)
	}
	var want aspen.WeightedGraph
	{
		g := aspen.NewWeightedGraphWith(testParams())
		for i := 0; i < 6; i++ {
			batch := []aspen.WeightedEdge{{Src: uint32(i), Dst: uint32(i + 1), Val: float32(i) + 0.5}}
			g = g.InsertEdges(batch)
			p, err := e.Insert(batch)
			if err != nil || p.Wait() == 0 {
				t.Fatalf("insert %d failed: %v", i, err)
			}
		}
		want = g
	}
	e.Close()
	e2, err := RecoverWeightedEngine(testParams(), Options{}, d)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	tx := e2.Begin()
	defer tx.Close()
	if !tx.Graph().Equal(want) {
		t.Fatal("recovered weighted graph differs")
	}
	if w, ok := tx.Graph().Weight(3, 4); !ok || w != 3.5 {
		t.Fatalf("weight(3,4) = %v %v, want 3.5", w, ok)
	}
}

// failAfter returns a failpoint that injects a crash on the n-th occurrence
// of op.
func failAfter(op string, n int) wal.Failpoint {
	var count atomic.Int64
	return func(got string) error {
		if got != op {
			return nil
		}
		if count.Add(1) == int64(n) {
			return wal.ErrCrash
		}
		return nil
	}
}

// TestCrashRecoveryMatrix is the crash-injection harness: for every kill
// point around append/fsync/checkpoint/truncate and several arm positions,
// it drives a durable engine until the injected crash, abandons it the way
// a dying process would, then recovers the directory and asserts the
// recovered graph equals SOME committed prefix of the submitted batches —
// and never a shorter prefix than the acknowledged (fsync'd) ones.
func TestCrashRecoveryMatrix(t *testing.T) {
	points := []string{"append", "append.partial", "append.flush", "sync", "checkpoint", "truncate"}
	const n = 14
	prefixes := prefixGraphs(n)
	for _, point := range points {
		for arm := 1; arm <= 3; arm++ {
			t.Run(fmt.Sprintf("%s/arm%d", point, arm), func(t *testing.T) {
				dir := t.TempDir()
				d := testDurability(dir)
				d.Fail = failAfter(point, arm)
				e, err := RecoverGraphEngine(testParams(), Options{}, d)
				if err != nil {
					t.Fatal(err)
				}
				acked := submitSerial(t, e, n)
				e.Close() // reaps goroutines; the log was abandoned by the injected crash

				if acked < n {
					// The engine must be fail-stopped with the injected error.
					if err := e.Err(); !errors.Is(err, wal.ErrCrash) {
						t.Fatalf("engine error = %v, want ErrCrash", err)
					}
				}

				// Recover and match against the committed prefixes.
				g, _, err := LoadGraph(testParams(), dir)
				if err != nil {
					t.Fatalf("recovery failed: %v", err)
				}
				// Submission is serial, so the recovered state must be the
				// acked prefix or at most one batch past it (the in-flight
				// append the crash stranded). Distinct prefixes can be equal
				// graphs (a delete of absent edges is a no-op), so test the
				// two legal prefixes directly rather than scanning for the
				// first structural match.
				switch {
				case g.Equal(prefixes[acked]):
				case acked < n && g.Equal(prefixes[acked+1]):
				default:
					t.Fatalf("recovered graph (%d edges) is neither the %d-batch acked prefix (%d edges) nor one past it",
						g.NumEdges(), acked, prefixes[acked].NumEdges())
				}
			})
		}
	}
}

// TestRecoverThenContinueAfterCrash checks the full cycle: crash, recover
// into a live engine, keep ingesting, close cleanly, recover again.
func TestRecoverThenContinueAfterCrash(t *testing.T) {
	dir := t.TempDir()
	d := testDurability(dir)
	d.Fail = failAfter("append", 8)
	e, err := RecoverGraphEngine(testParams(), Options{}, d)
	if err != nil {
		t.Fatal(err)
	}
	const n = 14
	acked := submitSerial(t, e, n)
	if acked == n {
		t.Fatal("crash never fired")
	}
	e.Close()

	// Reopen for appending (failpoint disarmed) and submit the remaining
	// batches on top of whatever prefix survived.
	d.Fail = nil
	e2, err := RecoverGraphEngine(testParams(), Options{}, d)
	if err != nil {
		t.Fatal(err)
	}
	tx := e2.Begin()
	survived := tx.Graph().NumEdges()
	tx.Close()
	prefixes := prefixGraphs(n)
	start := -1
	for j := 0; j <= n; j++ {
		if prefixes[j].NumEdges() == survived {
			tx := e2.Begin()
			eq := tx.Graph().Equal(prefixes[j])
			tx.Close()
			if eq {
				start = j
				break
			}
		}
	}
	if start < 0 {
		t.Fatal("recovered graph equals no prefix")
	}
	for i := start; i < n; i++ {
		del, edges := durBatch(i)
		var p Pending
		if del {
			p, _ = e2.Delete(edges)
		} else {
			p, _ = e2.Insert(edges)
		}
		if p.Wait() == 0 {
			t.Fatalf("batch %d nacked after recovery", i)
		}
	}
	e2.Close()

	g, _, err := LoadGraph(testParams(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(prefixes[n]) {
		t.Fatal("final recovery differs from the full prefix")
	}
}

// TestCorruptNewestCheckpointFallsBack damages the newest checkpoint file
// and asserts recovery falls back to the older retained checkpoint plus
// WAL replay, landing on the same final graph.
func TestCorruptNewestCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	d := testDurability(dir)
	e, err := RecoverGraphEngine(testParams(), Options{}, d)
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	if acked := submitSerial(t, e, n); acked != n {
		t.Fatalf("acked %d/%d", acked, n)
	}
	e.Close()

	cks, err := listCheckpoints(dir)
	if err != nil || len(cks) < 2 {
		t.Fatalf("want ≥2 checkpoints, have %d (err=%v)", len(cks), err)
	}
	newest := cks[len(cks)-1].path
	raw, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(newest, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	g, _, err := LoadGraph(testParams(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(prefixGraphs(n)[n]) {
		t.Fatal("fallback recovery differs from the committed graph")
	}
}

// TestDurableFailStop asserts the fail-stop contract: after a durability
// error, no later batch is acknowledged or applied, Flush resolves (with
// stamp 0) instead of hanging, and Err reports the cause.
func TestDurableFailStop(t *testing.T) {
	dir := t.TempDir()
	d := testDurability(dir)
	d.Fail = failAfter("append", 3)
	e, err := RecoverGraphEngine(testParams(), Options{}, d)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	acked := submitSerial(t, e, 10)
	if acked >= 10 {
		t.Fatal("crash never fired")
	}
	stampAt := e.Stats().Stamp
	// Everything after the failure is nacked; nothing else publishes.
	p, err := e.Insert([]aspen.Edge{{Src: 1, Dst: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if p.Wait() != 0 {
		t.Fatal("batch acked after fail-stop")
	}
	if s, err := e.Flush(); err != nil || s != 0 {
		t.Fatalf("Flush after fail-stop = %d, %v", s, err)
	}
	if e.Stats().Stamp != stampAt {
		t.Fatal("version published after fail-stop")
	}
	if err := e.Err(); !errors.Is(err, wal.ErrCrash) {
		t.Fatalf("Err() = %v", err)
	}
}

// TestMidLogCorruptionRefusesRecovery flips a byte in the middle of a
// non-final WAL segment: recovery must refuse with wal.ErrCorrupt rather
// than silently serving a wrong graph.
func TestMidLogCorruptionRefusesRecovery(t *testing.T) {
	dir := t.TempDir()
	d := testDurability(dir)
	d.CheckpointEvery = 1 << 30 // no checkpoints: the WAL is the only copy
	e, err := RecoverGraphEngine(testParams(), Options{}, d)
	if err != nil {
		t.Fatal(err)
	}
	if acked := submitSerial(t, e, 12); acked != 12 {
		t.Fatalf("acked %d/12", acked)
	}
	// Abandon without the clean-close checkpoint so replay must walk the log.
	e.dur.log.Abort()
	e.Close()

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("want ≥2 segments, have %d", len(segs))
	}
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(segs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadGraph(testParams(), dir); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("recovery over damaged mid-log = %v, want ErrCorrupt", err)
	}
}

// TestSyncPolicies drives each fsync policy through a restart cycle; all
// must reproduce the committed graph on a clean close.
func TestSyncPolicies(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncEveryCommit, SyncInterval, SyncOff} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			d := testDurability(dir)
			d.Policy = policy
			d.Interval = time.Millisecond
			e, err := RecoverGraphEngine(testParams(), Options{}, d)
			if err != nil {
				t.Fatal(err)
			}
			const n = 8
			if acked := submitSerial(t, e, n); acked != n {
				t.Fatalf("acked %d/%d", acked, n)
			}
			if err := e.SyncWAL(); err != nil {
				t.Fatal(err)
			}
			e.Close()
			g, _, err := LoadGraph(testParams(), dir)
			if err != nil {
				t.Fatal(err)
			}
			if !g.Equal(prefixGraphs(n)[n]) {
				t.Fatalf("policy %v: recovered graph differs", policy)
			}
		})
	}
}

// blockGraph is a minimal ligra.Graph whose engine insert blocks until
// released — the tool for saturating the ingest queue deterministically.
type blockGraph struct{}

func (blockGraph) Order() int                                  { return 0 }
func (blockGraph) NumEdges() uint64                            { return 0 }
func (blockGraph) Degree(uint32) int                           { return 0 }
func (blockGraph) ForEachNeighbor(uint32, func(v uint32) bool) {}

func newBlockedEngine(queueCap int) (*Engine[blockGraph, aspen.Edge], chan struct{}, chan struct{}) {
	entered := make(chan struct{}, 64)
	release := make(chan struct{})
	apply := func(g blockGraph, _ []CommitRun[aspen.Edge]) blockGraph {
		entered <- struct{}{}
		<-release
		return g
	}
	e := New(blockGraph{}, apply, Options{QueueCap: queueCap, MaxCoalesce: 1})
	return e, entered, release
}

// TestInsertBlocksOnFullQueue is the ingest queue's backpressure: with
// batch 1 blocked in apply and batch 2 filling the queue (cap 1), a third
// Insert blocks until the loop makes room, and all three commit in order.
func TestInsertBlocksOnFullQueue(t *testing.T) {
	e, entered, release := newBlockedEngine(1)
	one := []aspen.Edge{{Src: 1, Dst: 2}}

	// First batch: picked up by the loop, now blocked applying.
	p1, err := e.Insert(one)
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	// Second batch fills the queue (cap 1).
	p2, err := e.Insert(one)
	if err != nil {
		t.Fatal(err)
	}
	third := make(chan Pending, 1)
	go func() {
		p3, err := e.Insert(one)
		if err != nil {
			t.Error(err)
		}
		third <- p3
	}()
	select {
	case <-third:
		t.Fatal("Insert on a full queue returned without blocking")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	p3 := <-third
	if s1, s2, s3 := p1.Wait(), p2.Wait(), p3.Wait(); s1 == 0 || s2 < s1 || s3 < s2 {
		t.Fatalf("stamps %d, %d, %d: want nonzero and non-decreasing", s1, s2, s3)
	}
	e.Close()
	if _, err := e.Insert(one); !errors.Is(err, ErrClosed) {
		t.Fatalf("Insert after close = %v, want ErrClosed", err)
	}
}

// TestEngineRetirePinnedStamp covers version retention through the engine's
// retire hook: a transaction pinning a past stamp keeps that version
// readable while newer commits land, and releasing it retires the version
// exactly once.
func TestEngineRetirePinnedStamp(t *testing.T) {
	e := NewGraphEngine(aspen.NewGraph(testParams()), Options{})
	retired := make(map[uint64]int)
	var mu chanMutex = make(chan struct{}, 1)
	e.OnRetire(func(stamp uint64) {
		mu.lock()
		retired[stamp]++
		mu.unlock()
	})
	p, _ := e.Insert([]aspen.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}})
	first := p.Wait()
	tx := e.Begin() // pins version `first`
	for i := uint32(2); i < 6; i++ {
		p, _ := e.Insert([]aspen.Edge{{Src: i, Dst: i + 1}, {Src: i + 1, Dst: i}})
		p.Wait()
	}
	mu.lock()
	if retired[first] != 0 {
		mu.unlock()
		t.Fatal("pinned version retired while a transaction holds it")
	}
	mu.unlock()
	if tx.Stamp() != first || !tx.Graph().HasEdge(0, 1) || tx.Graph().NumEdges() != 2 {
		t.Fatal("pinned past stamp no longer readable")
	}
	tx.Close()
	mu.lock()
	if retired[first] != 1 {
		mu.unlock()
		t.Fatalf("pinned version retired %d times, want 1", retired[first])
	}
	for s, c := range retired {
		if c != 1 {
			mu.unlock()
			t.Fatalf("stamp %d retired %d times", s, c)
		}
	}
	mu.unlock()
	e.Close()
}

type chanMutex chan struct{}

func (m chanMutex) lock()   { m <- struct{}{} }
func (m chanMutex) unlock() { <-m }

// TestStatsDurable sanity-checks the durability counters surface.
func TestStatsDurable(t *testing.T) {
	dir := t.TempDir()
	e, err := RecoverGraphEngine(testParams(), Options{}, testDurability(dir))
	if err != nil {
		t.Fatal(err)
	}
	if acked := submitSerial(t, e, 7); acked != 7 {
		t.Fatalf("acked %d/7", acked)
	}
	s := e.Stats()
	if !s.Durable || s.WAL.Appends < 7 || s.WAL.Syncs < 7 {
		t.Fatalf("stats = %+v", s)
	}
	e.Close()
	if e.Stats().Checkpoints == 0 {
		t.Fatal("no checkpoint recorded after close")
	}
	if _, err := graphio.ReadSnapshot(mustOpenNewestCkpt(t, dir)); err != nil {
		t.Fatalf("final checkpoint unreadable: %v", err)
	}
}

func mustOpenNewestCkpt(t *testing.T, dir string) *os.File {
	t.Helper()
	cks, err := listCheckpoints(dir)
	if err != nil || len(cks) == 0 {
		t.Fatalf("no checkpoints (err=%v)", err)
	}
	f, err := os.Open(cks[len(cks)-1].path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

var _ ligra.Graph = blockGraph{}

// TestWALAppendObserverSeesTheLog: OnWALAppend is handed the record
// payload as an alias of the log's own frame, so what an observer copies
// out must be byte-for-byte what a replay of the directory yields — for
// plain and noted records, and for a record large enough (> scratch.Keep)
// that its frame is released after the append instead of reused.
func TestWALAppendObserverSeesTheLog(t *testing.T) {
	dir := t.TempDir()
	e, err := RecoverGraphEngine(testParams(), Options{}, Durability{Dir: dir, CheckpointEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	var seen []wal.Record
	e.OnWALAppend(func(seq uint64, kind wal.Kind, width uint8, count uint32, data []byte) {
		seen = append(seen, wal.Record{Seq: seq, Kind: kind, Width: width, Count: count, Data: append([]byte(nil), data...)})
	})
	big := make([]aspen.Edge, 200_000) // 1.6 MB of payload
	for i := range big {
		big[i] = aspen.Edge{Src: uint32(i % 5000), Dst: uint32(i / 7)}
	}
	submit := func(del bool, edges []aspen.Edge, note Note) {
		t.Helper()
		p, err := e.SubmitNoted(del, edges, note)
		if err != nil || p.Wait() == 0 {
			t.Fatalf("submit failed: %v", err)
		}
	}
	for i := 0; i < 6; i++ {
		del, edges := durBatch(i)
		submit(del, edges, Note{})
	}
	submit(false, big, Note{})
	for i := 6; i < 12; i++ {
		del, edges := durBatch(i)
		submit(del, edges, Note{Client: 9, Seq: uint64(i)})
	}
	e.Close()
	n := 0
	if _, err := wal.Replay(dir, 0, func(r wal.Record) error {
		if n >= len(seen) {
			return fmt.Errorf("log holds record %d the observer never saw", r.Seq)
		}
		s := seen[n]
		if r.Seq != s.Seq || r.Kind != s.Kind || r.Width != s.Width || r.Count != s.Count || string(r.Data) != string(s.Data) {
			return fmt.Errorf("record %d on disk differs from what the observer was handed", r.Seq)
		}
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != len(seen) || n != 13 {
		t.Fatalf("replayed %d records, observer saw %d, want 13 of each", n, len(seen))
	}
}
