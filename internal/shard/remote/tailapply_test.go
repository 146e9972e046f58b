package remote

import (
	"encoding/binary"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/aspen"
	"repro/internal/ctree"
	"repro/internal/stream"
	"repro/internal/wal"
	"repro/internal/xhash"
)

// tailBody is a VerbTailRec body as sendTailRec writes it.
func tailBody(seq uint64, kind wal.Kind, width uint8, count uint32, data []byte) []byte {
	b := binary.LittleEndian.AppendUint64(nil, seq)
	b = append(b, byte(kind), width)
	b = binary.LittleEndian.AppendUint32(b, count)
	return append(b, data...)
}

// TestReplicaRefusesOldRecord: a tail frame of a kind other than a commit
// frame is refused as corruption naming the kind, and applies nothing.
func TestReplicaRefusesOldRecord(t *testing.T) {
	r := NewGraphReplica("127.0.0.1:1", testParams(), 0, 1, 0, Options{})
	data := make([]byte, stream.EdgeCodec.Width)
	stream.EdgeCodec.Encode(data, aspen.Edge{Src: 1, Dst: 2})
	err := r.applyRec(tailBody(1, wal.Delete, uint8(stream.EdgeCodec.Width), 1, data))
	if !errors.Is(err, wal.ErrCorrupt) || !strings.Contains(err.Error(), "delete") {
		t.Fatalf("applyRec of a delete record = %v, want wal.ErrCorrupt naming the kind", err)
	}
	if r.Applied() != 0 || r.Stats().Records != 0 {
		t.Fatalf("refused record was applied: %+v", r.Stats())
	}
}

// tailStream returns the tail bodies a durable primary ships for a single
// one-edge commit followed by `commits` commits of 32 noted batches of 500
// directed edges each. Each group is queued while the commit before it is
// held in apply, so it commits as exactly one group.
func tailStream(b *testing.B, p ctree.Params, commits int) [][]byte {
	var hold atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	apply := func(g aspen.Graph, runs []stream.CommitRun[aspen.Edge]) aspen.Graph {
		if hold.Load() {
			entered <- struct{}{}
			<-release
		}
		return stream.ApplyRuns(g, runs)
	}
	d := stream.Durability{Dir: b.TempDir(), Policy: stream.SyncOff, CheckpointEvery: 1 << 30}
	e, err := stream.Recover(aspen.NewGraph(p), apply, stream.Options{QueueCap: 64}, d, stream.EdgeCodec, stream.GraphSnapshotCodec(p))
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	var bodies [][]byte
	e.OnWALAppend(func(seq uint64, kind wal.Kind, width uint8, count uint32, data []byte) {
		bodies = append(bodies, tailBody(seq, kind, width, count, data))
	})
	hold.Store(true)
	pend := []stream.Pending{}
	pd, err := e.Insert([]aspen.Edge{{Src: 0, Dst: 1}})
	if err != nil {
		b.Fatal(err)
	}
	pend = append(pend, pd)
	<-entered
	rng := xhash.NewRNG(1)
	for c := 0; c < commits; c++ {
		for i := 0; i < 32; i++ {
			edges := make([]aspen.Edge, 0, 500)
			for len(edges) < 500 {
				u, v := uint32(rng.Next()%(1<<16)), uint32(rng.Next()%(1<<16))
				edges = append(edges, aspen.Edge{Src: u, Dst: v}, aspen.Edge{Src: v, Dst: u})
			}
			pd, err := e.SubmitNoted(false, edges, stream.Note{Client: 1, Seq: uint64(32*c + i + 1)})
			if err != nil {
				b.Fatal(err)
			}
			pend = append(pend, pd)
		}
		last := c == commits-1
		hold.Store(!last)
		release <- struct{}{}
		if !last {
			<-entered
		}
	}
	for _, pd := range pend {
		if pd.Wait() == 0 {
			b.Fatal("commit nacked")
		}
	}
	return bodies
}

// BenchmarkReplicaTailApply is a replica applying a shipped stream of
// eight saturated commits (32 noted 500-edge batches each) from empty.
func BenchmarkReplicaTailApply(b *testing.B) {
	p := ctree.DefaultParams()
	bodies := tailStream(b, p, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewGraphReplica("127.0.0.1:1", p, 0, 1, 0, Options{})
		for _, body := range bodies {
			if err := r.applyRec(body); err != nil {
				b.Fatal(err)
			}
		}
	}
}
