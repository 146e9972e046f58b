// Streaming: the paper's headline scenario (§7.3) — a writer ingests a live
// stream of edge updates while readers run queries on consistent snapshots,
// with neither blocking the other. A social-network-like rMAT stream plays
// the role of the real-time feed.
package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algos"
	"repro/internal/aspen"
	"repro/internal/ctree"
	"repro/internal/rmat"
)

func main() {
	const scale = 13
	gen := rmat.NewGenerator(scale, 42)

	// Bootstrap with an initial graph.
	g := aspen.NewGraph(ctree.DefaultParams())
	g = g.InsertEdges(aspen.MakeUndirected(gen.Edges(0, 50_000)))
	vg := aspen.NewVersioned(g)
	fmt.Printf("initial graph: %d vertices, %d edges\n",
		g.NumVertices(), g.NumEdges())

	var (
		wg        sync.WaitGroup
		done      atomic.Bool
		batches   atomic.Int64
		queries   atomic.Int64
		queryTime atomic.Int64
	)

	// Writer: ingest batches of 10k updates for one second.
	wg.Add(1)
	go func() {
		defer wg.Done()
		pos := uint64(50_000)
		deadline := time.Now().Add(1 * time.Second)
		for time.Now().Before(deadline) {
			batch := aspen.MakeUndirected(gen.Edges(pos, pos+10_000))
			vg.Update(func(g aspen.Graph) aspen.Graph { return g.InsertEdges(batch) })
			pos += 10_000
			batches.Add(1)
		}
		done.Store(true)
	}()

	// Readers: run BFS queries on whatever version is current.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for !done.Load() {
				v := vg.Acquire()
				start := time.Now()
				res := algos.BFS(v.Graph, uint32(r), false)
				queryTime.Add(int64(time.Since(start)))
				queries.Add(1)
				_ = res
				vg.Release(v)
			}
		}(r)
	}
	wg.Wait()

	final := vg.Acquire()
	defer vg.Release(final)
	fmt.Printf("ingested %d batches (%d edges) concurrently with %d BFS queries\n",
		batches.Load(), final.Graph.NumEdges(), queries.Load())
	if q := queries.Load(); q > 0 {
		fmt.Printf("average BFS latency while streaming: %v\n",
			time.Duration(queryTime.Load()/q))
	}
	fmt.Printf("final version stamp: %d (strictly serializable history)\n", vg.Current())
}
