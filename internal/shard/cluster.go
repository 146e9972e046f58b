package shard

import (
	"sync"

	"repro/internal/aspen"
	"repro/internal/ctree"
	"repro/internal/ligra"
	"repro/internal/stream"
)

// Cluster is the multi-writer serving facade: S independent stream.Engine
// instances, one per shard, each the single writer for the vertices its
// partition owns. Submitted batches are routed per shard and enqueued on
// every touched shard's writer concurrently, so under load the shards
// commit in parallel — the paper's single-writer engine scaled across
// cores. Readers open cross-shard transactions with Begin; writers never
// block readers and readers never block writers, exactly as within one
// engine.
type Cluster[G ligra.Graph, E any] struct {
	part    Partitioner
	engines []*stream.Engine[G, E]
	srcOf   func(E) uint32

	txPool sync.Pool // *Tx[G, E]
	stitch stitchCache
}

// New assembles a cluster from a partitioner and one pre-built engine per
// shard (len(engines) must equal part.Shards()); srcOf extracts the routing
// key from an update. The graph-flavored constructors below cover the two
// aspen instantiations.
func New[G ligra.Graph, E any](part Partitioner, engines []*stream.Engine[G, E], srcOf func(E) uint32) *Cluster[G, E] {
	if len(engines) != part.Shards() {
		panic("shard: engine count does not match partitioner shard count")
	}
	return &Cluster[G, E]{part: part, engines: engines, srcOf: srcOf}
}

// NewGraphCluster builds a cluster of unweighted engines, each starting
// from an empty graph with edge-tree params p. Route initial edges through
// Insert + Barrier.
func NewGraphCluster(part Partitioner, p ctree.Params, opts stream.Options) *Cluster[aspen.Graph, aspen.Edge] {
	engines := make([]*stream.Engine[aspen.Graph, aspen.Edge], part.Shards())
	for i := range engines {
		engines[i] = stream.NewGraphEngine(aspen.NewGraph(p), opts)
	}
	return New(part, engines, EdgeSource)
}

// NewWeightedCluster builds a cluster of weighted engines, each starting
// from an empty weighted graph with edge-tree params p.
func NewWeightedCluster(part Partitioner, p ctree.Params, opts stream.Options) *Cluster[aspen.WeightedGraph, aspen.WeightedEdge] {
	engines := make([]*stream.Engine[aspen.WeightedGraph, aspen.WeightedEdge], part.Shards())
	for i := range engines {
		engines[i] = stream.NewWeightedEngine(aspen.NewWeightedGraphWith(p), opts)
	}
	return New(part, engines, WeightedEdgeSource)
}

// NewGraphClusterFrom builds a cluster whose shards start from an initial
// edge set loaded *outside* the serving path: the batch is routed per
// shard and each shard's graph built with one direct InsertEdges, so the
// engines' ingest counters and commit histograms start clean — exactly
// how a single engine is constructed over a pre-built graph. This is what
// benchmark drivers must use; loading through Cluster.Insert would charge
// the preload to the streamed-update numbers and land one giant commit
// sample in every shard's latency digest.
func NewGraphClusterFrom(part Partitioner, p ctree.Params, initial []aspen.Edge, opts stream.Options) *Cluster[aspen.Graph, aspen.Edge] {
	parts := Route(part, initial, EdgeSource)
	engines := make([]*stream.Engine[aspen.Graph, aspen.Edge], part.Shards())
	for i := range engines {
		engines[i] = stream.NewGraphEngine(aspen.NewGraph(p).InsertEdges(parts[i]), opts)
	}
	return New(part, engines, EdgeSource)
}

// NewWeightedClusterFrom is NewGraphClusterFrom for weighted graphs.
func NewWeightedClusterFrom(part Partitioner, p ctree.Params, initial []aspen.WeightedEdge, opts stream.Options) *Cluster[aspen.WeightedGraph, aspen.WeightedEdge] {
	parts := Route(part, initial, WeightedEdgeSource)
	engines := make([]*stream.Engine[aspen.WeightedGraph, aspen.WeightedEdge], part.Shards())
	for i := range engines {
		engines[i] = stream.NewWeightedEngine(aspen.NewWeightedGraphWith(p).InsertEdges(parts[i]), opts)
	}
	return New(part, engines, WeightedEdgeSource)
}

// Shards returns the shard count.
func (c *Cluster[G, E]) Shards() int { return len(c.engines) }

// Partitioner returns the cluster's vertex partitioner.
func (c *Cluster[G, E]) Partitioner() Partitioner { return c.part }

// Engine returns shard s's engine (for stats, tests and tuning hooks).
func (c *Cluster[G, E]) Engine(s int) *stream.Engine[G, E] { return c.engines[s] }

// Pending tracks one logical batch across the shards it touched; Wait
// blocks until every shard has committed its share.
type Pending struct {
	ps []stream.Pending
}

// Wait blocks until the batch is visible on every touched shard.
func (p Pending) Wait() {
	for _, sp := range p.ps {
		sp.Wait()
	}
}

// Insert routes a batch of edge insertions per shard and enqueues each
// sub-batch on its shard's writer; sub-batches are submitted concurrently,
// so one shard's backpressure does not serialize the others. The returned
// Pending resolves when every shard has published its share. A racing
// Close may accept some shards' sub-batches (they drain and commit) while
// others observe ErrClosed; the error is returned in that case.
func (c *Cluster[G, E]) Insert(edges []E) (Pending, error) { return c.submit(false, edges) }

// Delete routes a batch of edge deletions per shard.
func (c *Cluster[G, E]) Delete(edges []E) (Pending, error) { return c.submit(true, edges) }

func (c *Cluster[G, E]) submit(del bool, edges []E) (Pending, error) {
	parts := Route(c.part, edges, c.srcOf)
	touched := 0
	last := -1
	for s, sub := range parts {
		if len(sub) > 0 {
			touched++
			last = s
		}
	}
	if touched == 0 {
		return Pending{}, nil
	}
	one := func(e *stream.Engine[G, E], sub []E) (stream.Pending, error) {
		if del {
			return e.Delete(sub)
		}
		return e.Insert(sub)
	}
	if touched == 1 {
		p, err := one(c.engines[last], parts[last])
		if err != nil {
			return Pending{}, err
		}
		return Pending{ps: []stream.Pending{p}}, nil
	}
	// Concurrent submission: Insert blocks under queue backpressure, and a
	// full shard 0 must not delay shards 1..S-1 from making progress.
	ps := make([]stream.Pending, 0, touched)
	errs := make([]error, len(parts))
	pend := make([]stream.Pending, len(parts))
	var wg sync.WaitGroup
	for s, sub := range parts {
		if len(sub) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int, sub []E) {
			defer wg.Done()
			pend[s], errs[s] = one(c.engines[s], sub)
		}(s, sub)
	}
	wg.Wait()
	for s := range parts {
		if errs[s] != nil {
			return Pending{}, errs[s]
		}
		if len(parts[s]) > 0 {
			ps = append(ps, pend[s])
		}
	}
	return Pending{ps: ps}, nil
}

// FlushAll flushes every shard concurrently and returns the resulting
// version vector: stamps[s] is the stamp current on shard s once every
// batch submitted to it before the call has committed. A Begin after
// FlushAll (with writers quiet) pins exactly the flushed global state.
func (c *Cluster[G, E]) FlushAll() ([]uint64, error) {
	stamps := make([]uint64, len(c.engines))
	errs := make([]error, len(c.engines))
	var wg sync.WaitGroup
	for s, e := range c.engines {
		wg.Add(1)
		go func(s int, e *stream.Engine[G, E]) {
			defer wg.Done()
			stamps[s], errs[s] = e.Flush()
		}(s, e)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return stamps, err
		}
	}
	return stamps, nil
}

// Barrier waits until every shard has committed everything submitted
// before the call — the cross-shard consistency point the differential
// tests pin against a single-engine ground truth.
func (c *Cluster[G, E]) Barrier() error {
	_, err := c.FlushAll()
	return err
}

// Close stops every shard's ingest loop after draining its queue.
func (c *Cluster[G, E]) Close() {
	var wg sync.WaitGroup
	for _, e := range c.engines {
		wg.Add(1)
		go func(e *stream.Engine[G, E]) {
			defer wg.Done()
			e.Close()
		}(e)
	}
	wg.Wait()
}

// Stats returns the aggregated cluster counters. Safe to call concurrently
// with everything else.
func (c *Cluster[G, E]) Stats() stream.StoreStats {
	per := make([]stream.Stats, len(c.engines))
	for s, e := range c.engines {
		per[s] = e.Stats()
	}
	st := stream.SumStats(per)
	st.StitchBuilds = c.stitch.builds.Load()
	st.StitchPatches = c.stitch.patches.Load()
	st.StitchHits = c.stitch.hits.Load()
	return st
}

// Store returns the cluster as a stream.Store.
func (c *Cluster[G, E]) Store() stream.Store[E] { return clusterStore[G, E]{c} }

// clusterStore adapts Cluster to stream.Store; Stats, RegisterMetrics and
// Close are the cluster's own.
type clusterStore[G ligra.Graph, E any] struct{ *Cluster[G, E] }

func (s clusterStore[G, E]) Submit(del bool, edges []E) error {
	_, err := s.submit(del, edges)
	return err
}

func (s clusterStore[G, E]) Pin() (stream.Snapshot, error) { return txSnapshot[G, E]{s.Begin()}, nil }

func (s clusterStore[G, E]) Flush() ([]uint64, error) { return s.FlushAll() }

// txSnapshot adapts Tx to stream.Snapshot; Stamps and Close are the
// transaction's own.
type txSnapshot[G ligra.Graph, E any] struct{ *Tx[G, E] }

func (t txSnapshot[G, E]) Flat() (ligra.Graph, error) { return t.Tx.Flat(), nil }
func (t txSnapshot[G, E]) Tree() ligra.Graph          { return t.Ligra() }
