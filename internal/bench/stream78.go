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
	"repro/internal/stream"
)

// Sec78 reproduces §7.8 through the serving layer (internal/stream) rather
// than the hand-rolled goroutines of Table7: per input graph, a writer
// sustains batched inserts/deletes through the coalescing ingest queue
// while reader transactions run BFS and CC on pinned snapshots, and the
// engine's histograms report sustained throughput and tail latencies. The
// full sweep (reader scaling, SSSP, baselines, JSON capture) lives in
// cmd/stream.
func Sec78(w io.Writer, cfg Config) {
	t := tw(w)
	fmt.Fprintln(t, "Graph\tUpdates/sec\tCommit p50\tCommit p99\tQuery p50\tQuery p99\tCoalesce\tRetired\tFlat builds/commits")
	readers := 2
	batch := uint64(2_000)
	d := 1 * time.Second
	if cfg.Quick {
		batch, d = 500, 150*time.Millisecond
	}
	for _, ds := range datasets(cfg.Quick) {
		g := ds.AspenGraph(ctree.DefaultParams())
		gen := rmat.NewGenerator(ds.Scale, ds.Seed+3000)
		st := stream.NewGraphEngine(g, stream.Options{}).Store()
		wl := stream.Workload[aspen.Edge]{
			Store: st,
			NextBatch: stream.UpdateSchedule(ds.GenEdges, batch,
				func(lo, hi uint64) []aspen.Edge { return aspen.MakeUndirected(gen.Edges(lo, hi)) }),
			Readers: readers,
			Kernels: []stream.Kernel{
				{Name: "bfs", Run: func(g ligra.Graph) { algos.BFS(g, 0, false) }},
				{Name: "cc", Run: func(g ligra.Graph) { algos.ConnectedComponents(g) }},
			},
			Duration: d,
			UseFlat:  true,
		}
		rep := wl.Run()
		st.Close()
		fmt.Fprintf(t, "%s\t%.3g\t%s\t%s\t%s\t%s\t%.2f\t%d\t%d/%d\n", ds.Name,
			rep.UpdatesPerSec, secs(rep.Commit.P50), secs(rep.Commit.P99),
			secs(rep.Query.P50), secs(rep.Query.P99), rep.Coalesce, rep.RetiredVersions,
			rep.FlatBuilds, rep.Commits)
	}
	t.Flush()
}
