// Package stinger implements a faithful analogue of STINGER's streaming
// graph data structure (Ediger et al., HPEC 2012; paper §7.5): a mutable
// adjacency structure where each vertex's edges are chunked into fixed-size
// blocks chained as a linked list. Updates lock the affected vertex, walk the
// chain to find duplicates or free slots (O(deg) work), and deletions leave
// tombstones. Edge slots carry the weight and the two timestamps STINGER
// stores per edge, which is why its per-edge footprint is large (~145
// bytes/edge reported by the paper).
//
// Unlike Aspen, the structure is mutated in place, so queries must be phased
// with updates (or accept non-serializable reads) — exactly the limitation
// the paper describes for this family of systems.
package stinger

import (
	"sync"
	"sync/atomic"

	"repro/internal/aspen"
	"repro/internal/parallel"
)

// BlockSize is the number of edge slots per block (STINGER's default block
// holds on the order of 14–16 edges).
const BlockSize = 14

// slot mirrors STINGER's edge record: neighbor, weight and two timestamps,
// all 8-byte fields. A negative neighbor is a tombstone.
type slot struct {
	Nbr    int64
	Weight int64
	TSFrst int64
	TSRect int64
}

// block is one chunk of a vertex's adjacency list.
type block struct {
	next  *block
	used  int32 // slots ever used in this block (tombstones included)
	slots [BlockSize]slot
}

// vertex is a per-vertex header with its own lock (fine-grained locking, as
// in STINGER).
type vertex struct {
	mu   sync.Mutex
	deg  int32
	head *block
}

// Graph is a STINGER-style mutable graph over a fixed vertex-id space.
type Graph struct {
	verts  []vertex
	m      atomic.Int64
	blocks atomic.Int64
	now    atomic.Int64 // logical timestamp for edge records
	// ebpool serializes block allocation: STINGER hands out edge blocks
	// from one shared pool, a contention point during parallel ingest.
	ebpool sync.Mutex
}

// allocBlock takes a block from the shared pool (modelled as a locked
// allocation, as in STINGER's ebpool).
func (g *Graph) allocBlock() *block {
	g.ebpool.Lock()
	defer g.ebpool.Unlock()
	g.blocks.Add(1)
	return &block{}
}

// New returns an empty graph with vertex ids in [0, maxVertices).
func New(maxVertices int) *Graph {
	return &Graph{verts: make([]vertex, maxVertices)}
}

// Reset empties the graph and keeps its vertex slots: a graph allocated
// once serves many inserts into an empty graph.
func (g *Graph) Reset() {
	clear(g.verts)
	g.m.Store(0)
	g.blocks.Store(0)
	g.now.Store(0)
}

// Order returns the vertex-id space size.
func (g *Graph) Order() int { return len(g.verts) }

// NumEdges returns the number of live directed edges.
func (g *Graph) NumEdges() uint64 { return uint64(g.m.Load()) }

// Degree returns the degree of u.
func (g *Graph) Degree(u uint32) int {
	if int(u) >= len(g.verts) {
		return 0
	}
	return int(atomic.LoadInt32(&g.verts[u].deg))
}

// ForEachNeighbor applies f to u's live neighbors (block order) until f
// returns false. Neighbors are traversed by walking the block chain
// sequentially, the access pattern responsible for STINGER's slow
// high-degree traversals (paper §7.5).
func (g *Graph) ForEachNeighbor(u uint32, f func(v uint32) bool) {
	if int(u) >= len(g.verts) {
		return
	}
	for b := g.verts[u].head; b != nil; b = b.next {
		for i := int32(0); i < b.used; i++ {
			if n := b.slots[i].Nbr; n >= 0 {
				if !f(uint32(n)) {
					return
				}
			}
		}
	}
}

// InsertEdge adds the directed edge (u, v), returning false if it already
// existed. O(deg(u)) under u's lock.
func (g *Graph) InsertEdge(u, v uint32) bool {
	vx := &g.verts[u]
	vx.mu.Lock()
	defer vx.mu.Unlock()
	var free *block
	freeIdx := int32(-1)
	var last *block
	for b := vx.head; b != nil; b = b.next {
		for i := int32(0); i < b.used; i++ {
			s := &b.slots[i]
			if s.Nbr == int64(v) {
				s.TSRect = g.now.Add(1)
				return false // duplicate
			}
			if s.Nbr < 0 && free == nil {
				free, freeIdx = b, i
			}
		}
		if b.used < BlockSize && free == nil {
			free, freeIdx = b, b.used
		}
		last = b
	}
	ts := g.now.Add(1)
	if free == nil {
		nb := g.allocBlock()
		if last == nil {
			vx.head = nb
		} else {
			last.next = nb
		}
		free, freeIdx = nb, 0
	}
	if freeIdx == free.used {
		free.used++
	}
	free.slots[freeIdx] = slot{Nbr: int64(v), TSFrst: ts, TSRect: ts}
	atomic.AddInt32(&vx.deg, 1)
	g.m.Add(1)
	return true
}

// DeleteEdge removes the directed edge (u, v) by tombstoning its slot,
// returning whether it existed.
func (g *Graph) DeleteEdge(u, v uint32) bool {
	vx := &g.verts[u]
	vx.mu.Lock()
	defer vx.mu.Unlock()
	for b := vx.head; b != nil; b = b.next {
		for i := int32(0); i < b.used; i++ {
			if b.slots[i].Nbr == int64(v) {
				b.slots[i].Nbr = -1
				atomic.AddInt32(&vx.deg, -1)
				g.m.Add(-1)
				return true
			}
		}
	}
	return false
}

// InsertBatch inserts a batch of directed edges in parallel with per-vertex
// locking (STINGER's batch ingest model).
func (g *Graph) InsertBatch(edges []aspen.Edge) {
	parallel.ForGrain(len(edges), 64, func(i int) {
		g.InsertEdge(edges[i].Src, edges[i].Dst)
	})
}

// DeleteBatch deletes a batch of directed edges in parallel.
func (g *Graph) DeleteBatch(edges []aspen.Edge) {
	parallel.ForGrain(len(edges), 64, func(i int) {
		g.DeleteEdge(edges[i].Src, edges[i].Dst)
	})
}

// MemoryBytes returns the in-memory footprint: the vertex headers plus every
// allocated block (32-byte slots as in STINGER, plus block headers).
func (g *Graph) MemoryBytes() uint64 {
	const vertexBytes = 24               // lock + degree + head pointer
	const blockBytes = 16 + 32*BlockSize // header + slots
	return uint64(len(g.verts))*vertexBytes + uint64(g.blocks.Load())*blockBytes
}
