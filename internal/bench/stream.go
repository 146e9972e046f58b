package bench

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algos"
	"repro/internal/aspen"
	"repro/internal/ctree"
	"repro/internal/rmat"
	"repro/internal/stinger"
)

// Table7 reproduces the simultaneous-updates-and-queries experiment (§7.3):
// one goroutine replays a sequential stream of single-edge updates sampled
// from the graph while another runs a stream of BFS queries; reported are
// the update throughput, the average latency to make an edge visible, and
// the average BFS latency both concurrent with updates and in isolation.
func Table7(w io.Writer, cfg Config) {
	t := tw(w)
	fmt.Fprintln(t, "Graph\tUpdates/sec\tUpd. Latency\tBFS Latency (C)\tBFS Latency (I)")
	for _, d := range datasets(cfg.Quick) {
		g := d.AspenGraph(ctree.DefaultParams())
		sampleK := 20_000
		queries := 6
		if cfg.Quick {
			sampleK, queries = 500, 2
		}
		start, stream := rmat.SampleUpdateStream(g, sampleK, 11)
		vg := aspen.NewVersioned(start)

		// Isolated query latency on the final state of the stream. The
		// queries repeat over one static snapshot, so the §5.1 flat view
		// amortizes its O(n) build and is the right access path; the
		// concurrent path below stays tree-based — every query
		// there lands on a fresh version, so a per-query flat build would
		// never amortize.
		final := start
		for _, op := range stream.Ops {
			ue := aspen.MakeUndirected([]aspen.Edge{op.Edge})
			if op.Delete {
				final = final.DeleteEdges(ue)
			} else {
				final = final.InsertEdges(ue)
			}
		}
		finalFlat := aspen.BuildFlatSnapshot(final)
		isolated := timeIt(func() {
			for q := 0; q < queries; q++ {
				algos.BFS(finalFlat, uint32(q*17)%uint32(final.Order()), false)
			}
		}) / time.Duration(queries)

		var updates atomic.Int64
		var updDur atomic.Int64
		var wg sync.WaitGroup
		var stop atomic.Bool
		wg.Add(1)
		go func() { // sequential update stream (2 directed edges per op)
			defer wg.Done()
			for _, op := range stream.Ops {
				if stop.Load() {
					return
				}
				ue := aspen.MakeUndirected([]aspen.Edge{op.Edge})
				t0 := time.Now()
				if op.Delete {
					vg.Update(func(g aspen.Graph) aspen.Graph { return g.DeleteEdges(ue) })
				} else {
					vg.Update(func(g aspen.Graph) aspen.Graph { return g.InsertEdges(ue) })
				}
				updDur.Add(int64(time.Since(t0)))
				updates.Add(2)
			}
		}()
		var concurrent time.Duration
		for q := 0; q < queries; q++ {
			v := vg.Acquire()
			concurrent += timeIt(func() {
				algos.BFS(v.Graph, uint32(q*17)%uint32(v.Graph.Order()), false)
			})
			vg.Release(v)
		}
		concurrent /= time.Duration(queries)
		stop.Store(true)
		wg.Wait()
		u := uint64(updates.Load())
		total := time.Duration(updDur.Load())
		lat := time.Duration(0)
		if u > 0 {
			lat = total / time.Duration(u/2)
		}
		fmt.Fprintf(t, "%s\t%s\t%s\t%s\t%s\n", d.Name, rate(u, total), secs(lat),
			secs(concurrent), secs(isolated))
	}
	t.Flush()
}

// batchSizes returns the Table 8 batch-size sweep, scaled to the machine.
func batchSizes(quick bool) []int {
	if quick {
		return []int{10, 1_000, 10_000}
	}
	return []int{10, 1_000, 100_000, 1_000_000, 2_000_000}
}

// allocsDuring runs f and returns the number of heap allocations performed
// while it ran (via runtime.MemStats deltas; concurrent allocation from
// other goroutines is attributed too, so run it on a quiet process).
func allocsDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// Table8 reports parallel batch-insert throughput into each input graph with
// edges drawn from the rMAT generator (§7.4). Times include sorting and
// duplicate combination, as in the paper. Alongside each throughput the
// harness reports allocations per inserted edge — the metric the
// zero-allocation chunk pipeline targets.
func Table8(w io.Writer, cfg Config) {
	t := tw(w)
	fmt.Fprint(t, "Graph")
	for _, bs := range batchSizes(cfg.Quick) {
		fmt.Fprintf(t, "\t%d", bs)
	}
	fmt.Fprintln(t)
	for _, d := range datasets(cfg.Quick) {
		g := d.AspenGraph(ctree.DefaultParams())
		gen := rmat.NewGenerator(d.Scale, d.Seed+1000)
		fmt.Fprint(t, d.Name)
		for _, bs := range batchSizes(cfg.Quick) {
			batch := gen.Edges(0, uint64(bs))
			dur := medianOf3(func() { g.InsertEdges(batch) })
			al := allocsDuring(func() { g.InsertEdges(batch) })
			fmt.Fprintf(t, "\t%s (%.2f allocs/edge)", rate(uint64(bs), dur), float64(al)/float64(bs))
		}
		fmt.Fprintln(t)
	}
	t.Flush()
}

// Figure5 prints the insertion and deletion throughput series versus batch
// size for the smallest and largest inputs (Figure 5's log-log series).
func Figure5(w io.Writer, cfg Config) {
	t := tw(w)
	fmt.Fprintln(t, "Graph\tOp\tBatch Size\tThroughput (edges/sec)")
	ds := datasets(cfg.Quick)
	picks := []Dataset{ds[0]}
	if len(ds) > 1 {
		picks = append(picks, ds[len(ds)-1])
	}
	for _, d := range picks {
		g := d.AspenGraph(ctree.DefaultParams())
		gen := rmat.NewGenerator(d.Scale, d.Seed+2000)
		for _, bs := range batchSizes(cfg.Quick) {
			batch := gen.Edges(0, uint64(bs))
			ins := medianOf3(func() { g.InsertEdges(batch) })
			withBatch := g.InsertEdges(batch)
			del := medianOf3(func() { withBatch.DeleteEdges(batch) })
			fmt.Fprintf(t, "%s\tI\t%d\t%.3e\n", d.Name, bs, float64(bs)/ins.Seconds())
			fmt.Fprintf(t, "%s\tD\t%d\t%.3e\n", d.Name, bs, float64(bs)/del.Seconds())
		}
	}
	t.Flush()
}

// Table10 compares batch edge insertions into an initially empty graph
// between the Stinger analogue and Aspen (§7.5, Table 10).
func Table10(w io.Writer, cfg Config) {
	t := tw(w)
	fmt.Fprintln(t, "Batch Size\tStinger\tUpdates/sec\tAspen\tUpdates/sec")
	scale := 22
	sizes := []int{10, 100, 1_000, 10_000, 100_000, 1_000_000, 2_000_000}
	if cfg.Quick {
		scale = 12
		sizes = []int{10, 100, 1_000}
	}
	gen := rmat.NewGenerator(scale, 77)
	// As in §7.5, each system starts from a nearly-empty pre-allocated
	// graph and ingests consecutive distinct batches; the median batch
	// time is reported.
	for _, bs := range sizes {
		st := stinger.New(1 << scale)
		ag := aspen.NewGraph(ctree.DefaultParams())
		var stTimes, aTimes []time.Duration
		for trial := uint64(0); trial < 3; trial++ {
			batch := gen.Edges(trial*uint64(bs), (trial+1)*uint64(bs))
			stTimes = append(stTimes, timeIt(func() { st.InsertBatch(batch) }))
			aTimes = append(aTimes, timeIt(func() { ag = ag.InsertEdges(batch) }))
		}
		stTime := median(stTimes)
		aTime := median(aTimes)
		fmt.Fprintf(t, "%d\t%s\t%s\t%s\t%s\n", bs,
			secs(stTime), rate(uint64(bs), stTime),
			secs(aTime), rate(uint64(bs), aTime))
	}
	t.Flush()
}

// median of a small duration slice.
func median(ds []time.Duration) time.Duration {
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && ds[j-1] > ds[j]; j-- {
			ds[j-1], ds[j] = ds[j], ds[j-1]
		}
	}
	return ds[len(ds)/2]
}
