package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/algos"
	"repro/internal/aspen"
	"repro/internal/ctree"
	"repro/internal/ligra"
	"repro/internal/rmat"
	"repro/internal/shard"
	"repro/internal/stream"
)

// Shard reports PR-5's multi-writer scaling surface: saturated batched
// ingest through the sharded serving layer at 1/2/4 shards, with readers
// running BFS on stitched flat views of pinned version vectors. Shard
// count 1 is the plain single engine (the ground-truth baseline, no
// facade); higher counts route every batch per shard and commit on all
// shard writers concurrently. The speedup column is the headline: it
// tracks available cores (a 1-core host shows ~1x — sharding is a
// scaling mechanism, not a constant-factor win).
func Shard(w io.Writer, cfg Config) {
	t := tw(w)
	fmt.Fprintln(t, "Graph\tShards\tUpdates/sec\tSpeedup\tCommit p99 (worst)\tQuery p50\tStitch builds/hits")
	batch := uint64(4_000)
	d := 1 * time.Second
	readers := 2
	if cfg.Quick {
		batch, d = 500, 150*time.Millisecond
	}
	for _, ds := range datasets(cfg.Quick) {
		gen := rmat.NewGenerator(ds.Scale, ds.Seed+4000)
		var base float64
		for _, shards := range []int{1, 2, 4} {
			// Same initial edges at every shard count (one generator
			// prefix), loaded outside the serving path, so the sweep
			// compares deployments, not inputs, and measures only the
			// streamed updates.
			initial := aspen.MakeUndirected(gen.Edges(0, ds.GenEdges))
			var st stream.Store[aspen.Edge]
			if shards == 1 {
				st = stream.NewGraphEngine(aspen.NewGraph(ctree.DefaultParams()).InsertEdges(initial), stream.Options{}).Store()
			} else {
				part := shard.NewRangePartitioner(shards, uint32(1)<<ds.Scale)
				st = shard.NewGraphClusterFrom(part, ctree.DefaultParams(), initial, stream.Options{}).Store()
			}
			wl := stream.Workload[aspen.Edge]{
				Store: st,
				NextBatch: stream.UpdateSchedule(ds.GenEdges, batch,
					func(lo, hi uint64) []aspen.Edge { return aspen.MakeUndirected(gen.Edges(lo, hi)) }),
				Readers:  readers,
				Kernels:  []stream.Kernel{{Name: "bfs", Run: func(g ligra.Graph) { algos.BFS(g, 0, false) }}},
				Duration: d,
				UseFlat:  true,
			}
			rep := wl.Run()
			st.Close()
			upsec := rep.UpdatesPerSec
			if shards == 1 {
				base = upsec
			}
			speedup := 0.0
			if base > 0 {
				speedup = upsec / base
			}
			fmt.Fprintf(t, "%s\t%d\t%.3g\t%.2fx\t%s\t%s\t%d/%d\n",
				ds.Name, shards, upsec, speedup, secs(rep.Commit.P99), secs(rep.Query.P50), rep.StitchBuilds, rep.StitchHits)
		}
	}
	t.Flush()
}
