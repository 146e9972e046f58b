package stream

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/aspen"
	"repro/internal/ctree"
	"repro/internal/xhash"
)

// A commit folds every queued batch, inserts and deletes alike, into one
// call of the engine's update. These tests hold the first commit in its
// OnCommit hook while a mixed schedule queues up behind it, so the next
// commit carries many runs, and require the live graph, the graph replayed
// from the WAL and the graph recovered after Close to equal a model that
// applies the batches one at a time.

func TestMixedCommitSurvivesRecovery(t *testing.T) {
	checkMixedCommitRecovery(t, RecoverGraphEngine, LoadGraph, func(*xhash.RNG) struct{} { return struct{}{} })
}

func TestMixedCommitSurvivesRecoveryWeighted(t *testing.T) {
	checkMixedCommitRecovery(t, RecoverGraphEngineOf, LoadGraph, func(r *xhash.RNG) float32 { return float32(r.Intn(64)) / 4 })
}

// mixedSchedule returns the batches: two inserts then a delete, repeating.
// Inserts draw edges over a few ids (so later batches re-insert, and
// re-weight, what earlier ones inserted or deleted) plus one directed edge
// between fresh ids; a delete takes back the previous batch and a little of
// the one before, so an edge inserted and deleted inside the commit still
// leaves both its endpoints.
func mixedSchedule[V ctree.Value](n int, val func(*xhash.RNG) V) []CommitRun[aspen.EdgeOf[V]] {
	r := xhash.NewRNG(5)
	out := make([]CommitRun[aspen.EdgeOf[V]], n)
	for i := range out {
		if i%3 == 2 {
			del := append([]aspen.EdgeOf[V](nil), out[i-1].Edges...)
			out[i] = CommitRun[aspen.EdgeOf[V]]{Del: true, Edges: append(del, out[i-2].Edges[:3]...)}
			continue
		}
		var edges []aspen.EdgeOf[V]
		for j := 0; j < 6; j++ {
			u, v, w := uint32(r.Intn(24)), uint32(r.Intn(24)), val(r)
			edges = append(edges, aspen.EdgeOf[V]{Val: w, Src: u, Dst: v}, aspen.EdgeOf[V]{Val: w, Src: v, Dst: u})
		}
		edges = append(edges, aspen.EdgeOf[V]{Val: val(r), Src: uint32(100 + i), Dst: uint32(200 + i)})
		out[i].Edges = edges
	}
	return out
}

func checkMixedCommitRecovery[V ctree.Value](t *testing.T,
	open func(ctree.Params, Options, Durability) (*Engine[aspen.GraphOf[V], aspen.EdgeOf[V]], error),
	load func(ctree.Params, string) (aspen.GraphOf[V], uint64, error),
	val func(*xhash.RNG) V) {
	d := testDurability(t.TempDir())
	d.CheckpointEvery = 1 << 20 // recovery replays the commits from the WAL
	e, err := open(testParams(), Options{}, d)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	first, maxRuns := true, 0 // ingest goroutine only; read after Flush
	e.OnCommit(func(_, _ aspen.GraphOf[V], _ uint64, runs []CommitRun[aspen.EdgeOf[V]]) {
		if first {
			first = false
			<-gate
		}
		maxRuns = max(maxRuns, len(runs))
	})
	model := aspen.NewGraphOf[V](testParams())
	for _, b := range mixedSchedule(24, val) {
		var err error
		if b.Del {
			model = model.DeleteEdges(b.Edges)
			_, err = e.Delete(b.Edges)
		} else {
			model = model.InsertEdges(b.Edges)
			_, err = e.Insert(b.Edges)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	close(gate)
	if _, err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if maxRuns < 2 {
		t.Fatalf("no commit carried more than %d run; the schedule never mixed kinds in one commit", maxRuns)
	}
	tx := e.Begin()
	live := tx.Graph()
	tx.Close()
	same := func(what string, g aspen.GraphOf[V]) {
		t.Helper()
		if !g.Equal(model) || g.NumVertices() != model.NumVertices() || !g.Equal(live) || g.NumVertices() != live.NumVertices() {
			t.Fatalf("%s: %d vertices / %d edges; sequential model %d / %d, live %d / %d", what,
				g.NumVertices(), g.NumEdges(), model.NumVertices(), model.NumEdges(), live.NumVertices(), live.NumEdges())
		}
	}
	same("live", live)

	// Replay the WAL alone: a copy of the directory holds no checkpoint.
	replayDir := t.TempDir()
	ents, err := os.ReadDir(d.Dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		data, err := os.ReadFile(filepath.Join(d.Dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(replayDir, ent.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	replayed, _, err := load(testParams(), replayDir)
	if err != nil {
		t.Fatal(err)
	}
	same("WAL replay", replayed)

	e.Close()
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	e2, err := open(testParams(), Options{}, d)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	tx = e2.Begin()
	defer tx.Close()
	same("recovered", tx.Graph())
}
