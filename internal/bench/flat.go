package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/algos"
	"repro/internal/aspen"
	"repro/internal/ctree"
	"repro/internal/ligra"
	"repro/internal/xhash"
)

// Flat is the PR-4 experiment: the §5.1 flat view as the default fast path
// for global kernels. Per dataset it reports the parallel flat-snapshot
// build (1 thread vs all cores — the per-worker-range traversal must
// scale), and tree-vs-flat running times for BFS, CC and SSSP (the
// acceptance target is flat ≥ 15% faster). SSSP runs over the weighted
// graph and its weighted flat view.
func Flat(w io.Writer, cfg Config) {
	t := tw(w)
	fmt.Fprintln(t, "Graph\tFS build 1T\tFS build PT\tSU\tBFS tree\tBFS flat\tx\tCC tree\tCC flat\tx\tSSSP tree\tSSSP flat\tx")
	for _, d := range datasets(cfg.Quick) {
		g := d.AspenGraph(ctree.DefaultParams())
		var b1, bp time.Duration
		withProcs(1, func() { b1 = medianOf3(func() { aspen.BuildFlatSnapshot(g) }) })
		withProcs(cfg.procs(), func() { bp = medianOf3(func() { aspen.BuildFlatSnapshot(g) }) })
		fs := aspen.BuildFlatSnapshot(g)
		src := firstNonIsolated(fs)

		bfsT := medianOf3(func() { algos.BFS(g, src, false) })
		bfsF := medianOf3(func() { algos.BFS(fs, src, false) })
		ccT := medianOf3(func() { algos.ConnectedComponents(g) })
		ccF := medianOf3(func() { algos.ConnectedComponents(fs) })

		wg := weightedDataset(d)
		fw := aspen.BuildFlatWeightedSnapshot(wg)
		ssspT := medianOf3(func() { algos.SSSP(wg, src) })
		ssspF := medianOf3(func() { algos.SSSP(fw, src) })

		fmt.Fprintf(t, "%s\t%s\t%s\t%.2f\t%s\t%s\t%.2f\t%s\t%s\t%.2f\t%s\t%s\t%.2f\n",
			d.Name, secs(b1), secs(bp), ratio(b1, bp),
			secs(bfsT), secs(bfsF), ratio(bfsT, bfsF),
			secs(ccT), secs(ccF), ratio(ccT, ccF),
			secs(ssspT), secs(ssspF), ratio(ssspT, ssspF))
	}
	t.Flush()
	fmt.Fprintln(w, "x = tree/flat speedup (>= 1.15 is the PR-4 acceptance bar); SU = 1T/PT build self-speedup")
}

// ratio guards against zero denominators on tiny quick-mode inputs.
func ratio(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// weightedDataset builds the weighted twin of a dataset: same symmetric
// structure with deterministic per-edge weights (both directions agree).
func weightedDataset(d Dataset) aspen.WeightedGraph {
	adj := d.Adjacency()
	var batch []aspen.WeightedEdge
	for u, nbrs := range adj {
		for _, v := range nbrs {
			lo, hi := uint32(u), v
			if lo > hi {
				lo, hi = hi, lo
			}
			batch = append(batch, aspen.WeightedEdge{
				Src: uint32(u), Dst: v,
				Val: 0.5 + float32(xhash.Mix32(lo^hi*0x9e3779b9)%1000)/100,
			})
		}
	}
	return aspen.NewWeightedGraph().InsertEdges(batch)
}

// flatCapabilityCheck is a compile-time assertion that the aspen views
// carry the ligra capabilities the EdgeMap routing dispatches on.
var (
	_ ligra.FlatGraph         = (*aspen.FlatSnapshot)(nil)
	_ ligra.FlatWeightedGraph = (*aspen.FlatWeightedSnapshot)(nil)
)
