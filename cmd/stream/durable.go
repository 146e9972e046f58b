// Durability integration for cmd/stream: -data puts the single-engine
// experiment on a WAL-backed engine (recovering whatever the directory
// already holds), -recover-only measures recovery alone, and -killtest is
// the crash half of the kill -9 harness in main_test.go — a serial durable
// ingest loop that prints an ack line per committed batch so the test knows
// exactly which prefix must survive.
package main

import (
	"fmt"
	"time"

	"repro/internal/aspen"
	"repro/internal/ctree"
	"repro/internal/stream"
	"repro/internal/xhash"
)

// durability translates the -data/-fsync/-ckpt-every settings into a
// stream.Durability (Data must be non-empty).
func (cfg config) durability() stream.Durability {
	pol, err := stream.ParseSyncPolicy(cfg.Fsync)
	if err != nil {
		fatal("%v", err)
	}
	return stream.Durability{Dir: cfg.Data, Policy: pol, CheckpointEvery: cfg.CkptEvery}
}

// killBatch is the deterministic update stream the kill -9 harness replays:
// batch i inserts (or, every fifth batch, deletes) a seeded random set of
// undirected edges over a small id space. The recovery check in
// main_test.go rebuilds the same prefixes — binary and test must agree, so
// both live in package main.
func killBatch(i int) (del bool, edges []aspen.Edge) {
	seed := uint64(3000 + i)
	if i%5 == 4 {
		seed = uint64(3000 + i - 2) // delete a recently inserted batch: real work
	}
	rng := xhash.NewRNG(seed)
	pairs := make([]aspen.Edge, 20)
	for j := range pairs {
		pairs[j] = aspen.Edge{Src: rng.Uint32() % 256, Dst: rng.Uint32() % 256}
	}
	return i%5 == 4, aspen.MakeUndirected(pairs)
}

// killParams is the edge-tree configuration shared by the kill harness's
// ingest and recovery sides.
func killParams() ctree.Params { return ctree.Params{B: 8} }

// runKillTest ingests n killBatch batches serially under fsync-per-commit,
// printing "acked batch=<i>" after each commit is durable — the line the
// harness scans before delivering SIGKILL. A clean exit closes the engine
// (final checkpoint) and prints "done".
func runKillTest(dir string, n int) {
	d := stream.Durability{Dir: dir, Policy: stream.SyncEveryCommit, CheckpointEvery: 5}
	e, err := stream.RecoverGraphEngine(killParams(), stream.Options{}, d)
	if err != nil {
		fatal("killtest open: %v", err)
	}
	for i := 0; i < n; i++ {
		del, edges := killBatch(i)
		var p stream.Pending
		if del {
			p, err = e.Delete(edges)
		} else {
			p, err = e.Insert(edges)
		}
		if err != nil {
			fatal("killtest submit %d: %v", i, err)
		}
		if stamp := p.Wait(); stamp == 0 {
			fatal("killtest batch %d nacked: %v", i, e.Err())
		}
		fmt.Printf("acked batch=%d\n", i)
	}
	e.Close()
	if err := e.Err(); err != nil {
		fatal("killtest close: %v", err)
	}
	fmt.Println("done")
}

// runRecoverOnly opens -data as a directory of aspen graphs of payload V,
// reports what recovery found, and exits — the operational "is this
// directory intact?" probe.
func runRecoverOnly[V ctree.Value](dir string) {
	t0 := time.Now()
	g, stamp, err := stream.LoadGraph[V](ctree.DefaultParams(), dir)
	if err != nil {
		fatal("recover %s: %v", dir, err)
	}
	fmt.Printf("recovered %s in %v: %d vertices, %d edges, %d commits applied\n",
		dir, time.Since(t0).Round(time.Millisecond), g.Order(), g.NumEdges(), stamp)
}
