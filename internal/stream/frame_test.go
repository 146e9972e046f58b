package stream

import (
	"bytes"
	"encoding/hex"
	"errors"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/aspen"
	"repro/internal/ctree"
	"repro/internal/wal"
)

// TestOneFramePerCommit holds one commit in apply so that noted and
// un-noted batches, inserts and deletes, queue behind it and coalesce into
// the next commit. That commit must be one WAL frame with one seq, the seq
// its pins report, and recovery from the frame alone must see every note in
// submit order and rebuild the committed graph.
func TestOneFramePerCommit(t *testing.T) {
	p := testParams()
	dir := t.TempDir()
	var hold atomic.Bool
	entered, release := make(chan struct{}, 1), make(chan struct{})
	apply := func(g aspen.Graph, runs []CommitRun[aspen.Edge]) aspen.Graph {
		if hold.CompareAndSwap(true, false) {
			entered <- struct{}{}
			<-release
		}
		return ApplyRuns(g, runs)
	}
	// A failed final checkpoint leaves the frames uncovered, so the
	// recovery below replays them instead of reading a checkpoint.
	d := Durability{Dir: dir, Fail: func(op string) error {
		if op == "checkpoint" {
			return wal.ErrCrash
		}
		return nil
	}}
	e, err := Recover(aspen.NewGraph(p), apply, Options{QueueCap: 64}, d, EdgeCodec, GraphSnapshotCodec[struct{}](p))
	if err != nil {
		t.Fatal(err)
	}
	hold.Store(true)
	first, err := e.Insert([]aspen.Edge{{Src: 1, Dst: 2}})
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	seq0, appends0 := e.WALSeq(), e.Stats().WAL.Appends

	batch := func(i int) []aspen.Edge {
		_, edges := durBatch(i)
		return edges
	}
	subs := []struct {
		del   bool
		edges []aspen.Edge
		note  Note
	}{
		{false, batch(0), Note{Client: 7, Seq: 1}},
		{false, batch(1), Note{}},
		{true, batch(0)[:6], Note{Client: 7, Seq: 2}},
		{true, batch(1)[:4], Note{}},
		{false, batch(2), Note{Client: 8, Seq: 1}},
		{true, batch(2)[2:], Note{Client: 7, Seq: 3}},
		{false, batch(3), Note{}},
	}
	ref := aspen.NewGraph(p).InsertEdges([]aspen.Edge{{Src: 1, Dst: 2}})
	var pend []Pending
	var wantNotes []Note
	for _, s := range subs {
		pd, err := e.SubmitNoted(s.del, s.edges, s.note)
		if err != nil {
			t.Fatal(err)
		}
		pend = append(pend, pd)
		if s.note != (Note{}) {
			wantNotes = append(wantNotes, s.note)
		}
		if s.del {
			ref = ref.DeleteEdges(s.edges)
		} else {
			ref = ref.InsertEdges(s.edges)
		}
	}
	close(release)
	if first.Wait() == 0 {
		t.Fatal("first commit nacked")
	}
	var stamp uint64
	for i, pd := range pend {
		got := pd.Wait()
		if i == 0 {
			stamp = got
		}
		if got == 0 || got != stamp {
			t.Fatalf("batch %d committed at stamp %d, batch 0 at %d: want one commit", i, got, stamp)
		}
	}
	if got := e.WALSeq(); got != seq0+1 {
		t.Fatalf("WALSeq %d after one commit, want %d", got, seq0+1)
	}
	if got := e.Stats().WAL.Appends; got != appends0+1 {
		t.Fatalf("one commit appended %d frames, want 1", got-appends0)
	}
	tx := e.Begin()
	if tx.Seq() != seq0+1 {
		t.Fatalf("pin names seq %d, the commit's frame is %d", tx.Seq(), seq0+1)
	}
	committed := tx.Graph()
	tx.Close()
	if !committed.Equal(ref) {
		t.Fatal("committed graph differs from applying the batches in order")
	}
	e.Close()
	if err := e.Err(); !errors.Is(err, wal.ErrCrash) {
		t.Fatalf("engine error %v, want the injected checkpoint crash", err)
	}

	var notes []Note
	d.Fail = nil
	d.OnReplayNote = func(client, seq uint64) { notes = append(notes, Note{Client: client, Seq: seq}) }
	e2, err := RecoverGraphEngine(p, Options{}, d)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if !slices.Equal(notes, wantNotes) {
		t.Fatalf("replayed notes %v, want %v", notes, wantNotes)
	}
	tx2 := e2.Begin()
	defer tx2.Close()
	if tx2.Seq() != seq0+1 || !tx2.Graph().Equal(committed) {
		t.Fatalf("recovered seq %d and a graph that differs from the committed one (seq %d)", tx2.Seq(), seq0+1)
	}
}

// TestOldRecordRefused: a record of any kind but Commit — here a bare
// wal.Insert as the per-run format wrote it — is not replayed but refused
// as corruption that names the kind.
func TestOldRecordRefused(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(dir, 1, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, EdgeCodec.Width)
	EdgeCodec.Encode(data, aspen.Edge{Src: 1, Dst: 2})
	if _, err := l.Append(wal.Insert, uint8(EdgeCodec.Width), 1, data); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, err = LoadGraph[struct{}](testParams(), dir)
	if !errors.Is(err, wal.ErrCorrupt) || !strings.Contains(err.Error(), "insert") {
		t.Fatalf("Load of an insert record = %v, want wal.ErrCorrupt naming the kind", err)
	}
}

// commitFixture is a frame of two runs and two notes as logCommit writes it.
func commitFixture() ([]CommitRun[aspen.Edge], []Note, []byte) {
	runs := []CommitRun[aspen.Edge]{
		{Edges: []aspen.Edge{{Src: 1, Dst: 2}, {Src: 2, Dst: 1}}},
		{Del: true, Edges: []aspen.Edge{{Src: 1, Dst: 2}}},
	}
	notes := []Note{{Client: 3, Seq: 9}, {Client: 4, Seq: 1}}
	p := make([]byte, commitHead(2, 2)+3*EdgeCodec.Width)
	encodeCommit(p, EdgeCodec, runs, notes)
	return runs, notes, p
}

// FuzzCommitFrame feeds arbitrary bytes to the commit-frame decoder that
// recovery and the replicas' tail share: it must never panic, and whatever
// it accepts must re-encode to exactly the bytes it read.
func FuzzCommitFrame(f *testing.F) {
	_, _, valid := commitFixture()
	f.Add(uint32(3), valid)
	f.Add(uint32(2), valid)
	f.Add(uint32(0), []byte{0, 0, 0, 0})
	f.Add(uint32(1), []byte{1, 0, 0, 0, 2, 1, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, count uint32, data []byte) {
		rec := wal.Record{Seq: 1, Kind: wal.Commit, Width: uint8(EdgeCodec.Width), Count: count, Data: data}
		runs, notes, err := DecodeCommit(EdgeCodec, rec)
		if err != nil {
			if !errors.Is(err, wal.ErrCorrupt) {
				t.Fatalf("decode error %v is not wal.ErrCorrupt", err)
			}
			return
		}
		out := make([]byte, len(data))
		encodeCommit(out, EdgeCodec, runs, notes)
		if !bytes.Equal(out, data) {
			t.Fatalf("frame %x re-encodes as %x", data, out)
		}
	})
}

// TestDecodeCommitRoundTrip pins the fixture's decode.
func TestDecodeCommitRoundTrip(t *testing.T) {
	runs, notes, p := commitFixture()
	gotRuns, gotNotes, err := DecodeCommit(EdgeCodec, wal.Record{Kind: wal.Commit, Width: 8, Count: 3, Data: p})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(gotNotes, notes) || len(gotRuns) != len(runs) {
		t.Fatalf("decoded %d runs and notes %v", len(gotRuns), gotNotes)
	}
	for i, r := range gotRuns {
		if r.Del != runs[i].Del || !slices.Equal(r.Edges, runs[i].Edges) {
			t.Fatalf("run %d decoded as %+v, want %+v", i, r, runs[i])
		}
	}
	if _, _, err := DecodeCommit(EdgeCodec, wal.Record{Kind: wal.Commit, Width: 8, Count: 2, Data: p}); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("a Count the runs disagree with decoded: %v", err)
	}
}

// TestEdgeCodecOfGoldenBytes pins the commit frame the payload-derived
// codec writes to the bytes of the frame format's fixed layout: src, dst,
// then the payload's little-endian image (a float32 as its Float32bits).
// Existing WAL directories and peers of other versions read these bytes,
// so the codec derived from V must not change them.
func TestEdgeCodecOfGoldenBytes(t *testing.T) {
	checkGoldenFrame(t, func(i int) struct{} { return struct{}{} },
		"0200010000020000000101000000070000000000000009000000000000000100000002000000"+
			"04030201040000000500000006000000")
	checkGoldenFrame(t, func(i int) float32 { return []float32{1.5, -2, 0.25}[i] },
		"0200010000020000000101000000070000000000000009000000000000000100000002000000"+
			"0000c03f0403020104000000000000c005000000060000000000803e")
}

func checkGoldenFrame[V ctree.Value](t *testing.T, val func(int) V, want string) {
	t.Helper()
	codec := EdgeCodecOf[V]()
	runs := []CommitRun[aspen.EdgeOf[V]]{
		{Edges: []aspen.EdgeOf[V]{{Src: 1, Dst: 2, Val: val(0)}, {Src: 0x01020304, Dst: 4, Val: val(1)}}},
		{Del: true, Edges: []aspen.EdgeOf[V]{{Src: 5, Dst: 6, Val: val(2)}}},
	}
	notes := []Note{{Client: 7, Seq: 9}}
	p := make([]byte, commitHead(2, 1)+3*codec.Width)
	encodeCommit(p, codec, runs, notes)
	if got := hex.EncodeToString(p); got != want {
		t.Fatalf("%T frame\n got %s\nwant %s", val(0), got, want)
	}
	gotRuns, _, err := DecodeCommit(codec, wal.Record{Kind: wal.Commit, Width: uint8(codec.Width), Count: 3, Data: p})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range gotRuns {
		if r.Del != runs[i].Del || !slices.Equal(r.Edges, runs[i].Edges) {
			t.Fatalf("%T run %d decoded as %+v, want %+v", val(0), i, r, runs[i])
		}
	}
}

// TestLogCommitAllocatesNothing: a commit of 32 noted batches writes its
// run and note tables and its edges straight into the log's frame, so a
// steady-state commit append allocates nothing.
func TestLogCommitAllocatesNothing(t *testing.T) {
	l, err := wal.Open(t.TempDir(), 1, wal.Options{SegmentBytes: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Abort() // nothing here reads the files back; skip the fsync
	d := &durable[aspen.Graph, aspen.Edge]{opts: Durability{Policy: SyncOff}, log: l, codec: EdgeCodec}
	var runs []CommitRun[aspen.Edge]
	var notes []Note
	for i := 0; i < 32; i++ {
		del, edges := durBatch(i)
		runs = append(runs, CommitRun[aspen.Edge]{Del: del, Edges: edges})
		notes = append(notes, Note{Client: 5, Seq: uint64(i + 1)})
	}
	logOnce := func() {
		if _, err := d.logCommit(runs, notes); err != nil {
			t.Fatal(err)
		}
	}
	logOnce()
	if allocs := testing.AllocsPerRun(200, logOnce); allocs != 0 {
		t.Fatalf("logging a commit of 32 noted batches allocates %.0f objects, want 0", allocs)
	}
	if d.seq != 202 {
		t.Fatalf("logged %d frames, want one per commit (202)", d.seq)
	}
}
