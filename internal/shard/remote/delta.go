package remote

import (
	"errors"
	"fmt"

	"repro/internal/aspen"
	"repro/internal/ctree"
	"repro/internal/ligra"
	"repro/internal/rpc"
	"repro/internal/scratch"
)

// A VerbRead that names a base (the version the client already holds a
// view of) is a delta read. Its response leads with a status byte: the
// server either sends the edge diff base → ref or declines, and a
// declined delta sends the client back to the whole-range read.
const (
	deltaOK       uint8 = 0
	deltaNoBase   uint8 = 1 // base not pinned on this connection / not in the replica ring
	deltaTooLarge uint8 = 2 // more than a quarter of the shard's edges differ

	// readReqLen is the whole-range request body, [ref u64][lo u32]; a
	// delta request appends [base u64].
	readReqLen = 12
)

// deltaVertex is one changed vertex of a delta: its degree at the target
// version and how many of the delta's adds and dels are its own.
type deltaVertex struct {
	id, deg    uint32
	nAdd, nDel uint32
}

// delta is the edge diff between two versions of one shard — the body of
// a delta read, filled by diff on the serving side and by decode on the
// client:
//
//	[status u8][order u32][m u64][more u8][nv u32]
//	nv × [id u32][deg u32][nAdd u32][nDel u32][adds nAdd×u32][wts nAdd×f32?][dels nDel×u32]
//
// Vertices come in ascending id order and each vertex's adds and dels in
// ascending neighbor order; a re-weighted edge is an add of a neighbor the
// vertex already has. A diff larger than one response is chunked under the
// same maxReadVerts/maxReadEdges limits as the whole-range read: more
// says "ask again from the last id + 1".
type delta struct {
	order uint32
	m     uint64
	more  bool
	verts []deltaVertex
	adds  []uint32
	wts   []float32 // parallel to adds on weighted shards, else empty
	dels  []uint32
}

// reset empties d for reuse. Scratch that one large diff grew (a walk that
// ended in "too large" collects up to a quarter of the shard) is dropped by
// the scratch.Keep rule, not kept for the connection's lifetime.
func (d *delta) reset() {
	d.order, d.m, d.more = 0, 0, false
	d.verts, d.adds, d.wts, d.dels = scratch.Trim(d.verts), scratch.Trim(d.adds), scratch.Trim(d.wts), scratch.Trim(d.dels)
}

// edges is the number of edge changes the delta carries.
func (d *delta) edges() int { return len(d.adds) + len(d.dels) }

// diff fills d with the chunk starting at vertex lo of the edge diff
// base → cur and returns the response status. It reads the two tree
// snapshots only (aspen.DiffVersions pruned by pointer sharing, refined per
// vertex by VertexDelta.Edges), so its cost is the size of the diff, never
// the size of the graph, and no flat view is built. The walk always runs to
// the end of the diff (or past the too-large limit): whether a delta is
// worth sending is a property of the whole diff, not of one chunk.
func (d *delta) diff(base, cur ligra.Graph, lo uint32) uint8 {
	d.reset()
	d.order, d.m = uint32(cur.Order()), cur.NumEdges()
	w := diffWalk{d: d, lo: lo, limit: d.m / 4}
	switch b := base.(type) {
	case aspen.Graph:
		c, ok := cur.(aspen.Graph)
		if !ok {
			return deltaNoBase
		}
		walkDiff(&w, nil, func(f func(aspen.VertexDelta[struct{}]) bool) {
			aspen.DiffVersions(b, c, f)
		})
	case aspen.WeightedGraph:
		c, ok := cur.(aspen.WeightedGraph)
		if !ok {
			return deltaNoBase
		}
		walkDiff(&w, func(wt float32) float32 { return wt }, func(f func(aspen.VertexDelta[float32]) bool) {
			aspen.DiffVersionsWeighted(b, c, f)
		})
	default:
		return deltaNoBase
	}
	if w.total > w.limit {
		return deltaTooLarge
	}
	return deltaOK
}

// diffWalk is the state of one diff pass: total counts every edge change
// of the whole diff, the chunk takes the changed vertices from lo on until
// it is full.
type diffWalk struct {
	d      *delta
	lo     uint32
	limit  uint64
	total  uint64
	chunkE int
}

// walkDiff runs one vertex-level diff into w. weight (nil on unweighted
// shards) extracts an edge payload's wire weight. The edge callback is
// built once, outside the vertex loop.
func walkDiff[V ctree.Value](w *diffWalk, weight func(V) float32, run func(func(aspen.VertexDelta[V]) bool)) {
	d := w.d
	edge := func(e uint32, kind ctree.DiffKind, _, nv V) bool {
		if kind == ctree.DiffRemoved {
			d.dels = append(d.dels, e)
			return true
		}
		d.adds = append(d.adds, e)
		if weight != nil {
			d.wts = append(d.wts, weight(nv))
		}
		return true
	}
	run(func(vd aspen.VertexDelta[V]) bool {
		na, nd := len(d.adds), len(d.dels)
		vd.Edges(edge)
		nAdd, nDel := len(d.adds)-na, len(d.dels)-nd
		w.total += uint64(nAdd + nDel)
		if w.total > w.limit {
			return false
		}
		full := len(d.verts) >= maxReadVerts || w.chunkE >= maxReadEdges
		if nAdd+nDel == 0 || vd.ID < w.lo || full {
			// Not part of this chunk: a vertex that came or went without
			// edges changes nothing a flat view shows beyond order.
			d.more = d.more || (full && nAdd+nDel > 0)
			d.adds, d.dels = d.adds[:na], d.dels[:nd]
			if weight != nil {
				d.wts = d.wts[:na]
			}
			return true
		}
		d.verts = append(d.verts, deltaVertex{id: vd.ID, deg: uint32(vd.New.Size()), nAdd: uint32(nAdd), nDel: uint32(nDel)})
		w.chunkE += nAdd + nDel
		return true
	})
}

// encode appends the delta response body for status.
func (d *delta) encode(e *rpc.Encoder, status uint8) {
	e.U8(status)
	if status != deltaOK {
		return
	}
	e.U32(d.order)
	e.U64(d.m)
	if d.more {
		e.U8(1)
	} else {
		e.U8(0)
	}
	e.U32(uint32(len(d.verts)))
	a, x := 0, 0
	for _, v := range d.verts {
		e.U32(v.id)
		e.U32(v.deg)
		e.U32(v.nAdd)
		e.U32(v.nDel)
		for _, w := range d.adds[a : a+int(v.nAdd)] {
			e.U32(w)
		}
		if len(d.wts) > 0 {
			for _, wt := range d.wts[a : a+int(v.nAdd)] {
				e.F32(wt)
			}
		}
		for _, w := range d.dels[x : x+int(v.nDel)] {
			e.U32(w)
		}
		a += int(v.nAdd)
		x += int(v.nDel)
	}
}

var errDeltaBody = errors.New("remote: malformed delta body")

// decode appends one delta response chunk to d and returns its status.
// Every count the peer supplies is checked against the bytes actually left
// in the frame before anything is allocated for it, and a later chunk must
// describe the same target (order, m) and continue in ascending id order.
func (d *delta) decode(b *rpc.Body, weighted bool) (uint8, error) {
	status := b.U8()
	if err := b.Err(); err != nil {
		return 0, err
	}
	if status != deltaOK {
		if status != deltaNoBase && status != deltaTooLarge {
			return 0, fmt.Errorf("%w: status %d", errDeltaBody, status)
		}
		return status, nil
	}
	order, m := b.U32(), b.U64()
	more := b.U8()
	nv := b.U32()
	if err := b.Err(); err != nil {
		return 0, err
	}
	if len(d.verts) > 0 && (order != d.order || m != d.m) {
		return 0, fmt.Errorf("remote: delta target changed mid-fetch (order %d→%d, m %d→%d)", d.order, order, d.m, m)
	}
	if more > 1 || uint64(nv)*16 > uint64(b.Len()) {
		return 0, fmt.Errorf("%w: %d vertices in %d bytes", errDeltaBody, nv, b.Len())
	}
	d.order, d.m, d.more = order, m, more == 1
	addW := uint64(4)
	if weighted {
		addW = 8
	}
	for i := uint32(0); i < nv; i++ {
		v := deltaVertex{id: b.U32(), deg: b.U32(), nAdd: b.U32(), nDel: b.U32()}
		if err := b.Err(); err != nil {
			return 0, err
		}
		if uint64(v.nAdd)*addW+uint64(v.nDel)*4 > uint64(b.Len()) {
			return 0, fmt.Errorf("%w: vertex %d claims %d adds, %d dels in %d bytes", errDeltaBody, v.id, v.nAdd, v.nDel, b.Len())
		}
		if n := len(d.verts); n > 0 && v.id <= d.verts[n-1].id {
			return 0, fmt.Errorf("%w: vertex %d after %d", errDeltaBody, v.id, d.verts[n-1].id)
		}
		for j := uint32(0); j < v.nAdd; j++ {
			d.adds = append(d.adds, b.U32())
		}
		if weighted {
			for j := uint32(0); j < v.nAdd; j++ {
				d.wts = append(d.wts, b.F32())
			}
		}
		for j := uint32(0); j < v.nDel; j++ {
			d.dels = append(d.dels, b.U32())
		}
		d.verts = append(d.verts, v)
	}
	if b.Len() != 0 {
		return 0, fmt.Errorf("%w: %d trailing bytes", errDeltaBody, b.Len())
	}
	return deltaOK, nil
}
