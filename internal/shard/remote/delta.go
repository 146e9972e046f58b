package remote

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/aspen"
	"repro/internal/ctree"
	"repro/internal/ligra"
	"repro/internal/rpc"
	"repro/internal/scratch"
)

// Every VerbRead names a base — the version the client already holds a
// view of, or 0 for the empty version — and every response is a delta
// body. Its status byte says what the body is a diff from: the named base
// (deltaOK), or the empty version, and then why the base could not be used.
const (
	deltaOK       uint8 = 0
	deltaNoBase   uint8 = 1 // base 0, not pinned on this connection, or not in the replica ring
	deltaTooLarge uint8 = 2 // more than a quarter of the shard's edges differ
)

// Read response chunking: one chunk stops after this many vertices or
// once it has gathered at least this many edges, whichever comes
// first, bounding the response frame well under rpc.MaxFrame.
const (
	maxReadVerts = 1 << 17
	maxReadEdges = 1 << 20
)

// deltaVertex is one changed vertex of a delta: its degree at the target
// version and how many of the delta's adds and dels are its own.
type deltaVertex struct {
	id, deg    uint32
	nAdd, nDel uint32
}

// delta is the edge diff between two versions of one shard — the body of
// a read, filled by diff on the serving side and by decode on the client:
//
//	[status u8][order u32][m u64][more u8][nv u32]
//	nv × [id u32][deg u32][nAdd u32][nDel u32][adds nAdd×u32][wts nAdd×f32?][dels nDel×u32]
//
// Vertices come in ascending id order and each vertex's adds and dels in
// ascending neighbor order; a re-weighted edge is an add of a neighbor the
// vertex already has. A diff from the empty version (empty) lists every id
// of its chunk, absent and edgeless ones as {id, 0, 0, 0}, so what a client
// sizes from it is paid for by the bytes received. A diff larger than one
// response is chunked under maxReadVerts/maxReadEdges: more says "ask again
// from the last id + 1".
type delta struct {
	order uint32
	m     uint64
	more  bool
	empty bool // the chunks received so far are from the empty version
	verts []deltaVertex
	adds  []uint32
	wts   []float32 // parallel to adds on weighted shards, else empty
	dels  []uint32
}

// reset empties d for reuse. Scratch that one large diff grew is dropped by
// the scratch.Keep rule, not kept for the connection's lifetime.
func (d *delta) reset() {
	d.order, d.m, d.more, d.empty = 0, 0, false, false
	d.verts, d.adds, d.wts, d.dels = scratch.Trim(d.verts), scratch.Trim(d.adds), scratch.Trim(d.wts), scratch.Trim(d.dels)
}

// edges is the number of edge changes the delta carries.
func (d *delta) edges() int { return len(d.adds) + len(d.dels) }

// diff fills d with the chunk starting at vertex lo of the edge diff
// base → cur and returns the response status; a nil base is the empty
// version. It reads tree snapshots only, never a flat view. The diff walk
// (aspen.DiffVersions pruned by pointer sharing, refined per vertex by
// VertexDelta.Edges) costs the size of the diff and always runs to its end
// or past m/4 — whether a delta is worth sending is a property of the whole
// diff, not of one chunk; past m/4 the chunk is the diff from empty instead.
func (d *delta) diff(base, cur ligra.Graph, lo uint32) (uint8, error) {
	switch c := cur.(type) {
	case aspen.Graph:
		return diffOf(d, base, c, lo, nil), nil
	case aspen.WeightedGraph:
		return diffOf(d, base, c, lo, func(wt float32) float32 { return wt }), nil
	}
	return 0, fmt.Errorf("remote: cannot serve reads of %T", cur)
}

// diffOf is diff on one payload. wire (nil on unweighted shards) extracts
// an edge payload's wire weight.
func diffOf[V ctree.Value](d *delta, base ligra.Graph, cur aspen.GraphOf[V], lo uint32, wire func(V) float32) uint8 {
	b, ok := base.(aspen.GraphOf[V])
	if !ok {
		walkFrom(d, cur, lo, wire)
		return deltaNoBase
	}
	d.reset()
	d.order, d.m = uint32(cur.Order()), cur.NumEdges()
	w := diffWalk{d: d, lo: lo, limit: d.m / 4}
	walkDiff(&w, wire, func(f func(aspen.VertexDelta[V]) bool) { aspen.DiffVersions(b, cur, f) })
	if w.total <= w.limit {
		return deltaOK
	}
	walkFrom(d, cur, lo, wire)
	return deltaTooLarge
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

// walkDiff runs one vertex-level diff into w. The edge callback is built
// once, outside the vertex loop.
func walkDiff[V ctree.Value](w *diffWalk, wire func(V) float32, run func(func(aspen.VertexDelta[V]) bool)) {
	d := w.d
	edge := func(e uint32, kind ctree.DiffKind, _, nv V) bool {
		if kind == ctree.DiffRemoved {
			d.dels = append(d.dels, e)
			return true
		}
		d.adds = append(d.adds, e)
		if wire != nil {
			d.wts = append(d.wts, wire(nv))
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
			if wire != nil {
				d.wts = d.wts[:na]
			}
			return true
		}
		d.verts = append(d.verts, deltaVertex{id: vd.ID, deg: uint32(vd.New.Size()), nAdd: uint32(nAdd), nDel: uint32(nDel)})
		w.chunkE += nAdd + nDel
		return true
	})
}

// walkFrom fills d with the chunk of g's diff from the empty version that
// starts at id lo: one in-order walk of the vertex tree, ids below lo
// skipped without decoding their edges, every id of the chunk listed. The
// edge callbacks are built once, outside the vertex loop.
func walkFrom[V ctree.Value](d *delta, g aspen.GraphOf[V], lo uint32, wire func(V) float32) {
	d.reset()
	d.order, d.m = uint32(g.Order()), g.NumEdges()
	d.verts = slices.Grow(d.verts, max(0, min(int(d.order)-int(lo), maxReadVerts)))
	d.adds = slices.Grow(d.adds, int(min(d.m, maxReadEdges)))
	if wire != nil {
		d.wts = slices.Grow(d.wts, cap(d.adds))
	}
	put := func(e uint32) bool {
		d.adds = append(d.adds, e)
		return true
	}
	putKV := func(e uint32, v V) bool {
		d.adds, d.wts = append(d.adds, e), append(d.wts, wire(v))
		return true
	}
	next, edges := uint64(lo), 0
	g.ForEachVertex(func(u uint32, et ctree.Tree[V]) bool {
		if u < lo {
			return true
		}
		for ; next <= uint64(u); next++ {
			if len(d.verts) >= maxReadVerts || edges >= maxReadEdges {
				d.more = true
				return false
			}
			d.verts = append(d.verts, deltaVertex{id: uint32(next)})
		}
		deg := uint32(et.Size())
		d.verts[len(d.verts)-1] = deltaVertex{id: u, deg: deg, nAdd: deg}
		if wire == nil {
			et.ForEach(put)
		} else {
			et.ForEachKV(putKV)
		}
		edges += int(deg)
		return true
	})
}

// encode appends the response body for status: one Reserve for the whole
// body, whose size is known here.
func (d *delta) encode(e *rpc.Encoder, status uint8) {
	addW := 4
	if len(d.wts) > 0 {
		addW = 8
	}
	buf := e.Reserve(18 + 16*len(d.verts) + addW*len(d.adds) + 4*len(d.dels))
	le := binary.LittleEndian
	buf[0] = status
	le.PutUint32(buf[1:], d.order)
	le.PutUint64(buf[5:], d.m)
	buf[13] = 0
	if d.more {
		buf[13] = 1
	}
	le.PutUint32(buf[14:], uint32(len(d.verts)))
	at := 18
	put := func(x uint32) {
		le.PutUint32(buf[at:], x)
		at += 4
	}
	a, x := 0, 0
	for _, v := range d.verts {
		put(v.id)
		put(v.deg)
		put(v.nAdd)
		put(v.nDel)
		for _, w := range d.adds[a : a+int(v.nAdd)] {
			put(w)
		}
		if addW == 8 {
			for _, wt := range d.wts[a : a+int(v.nAdd)] {
				put(math.Float32bits(wt))
			}
		}
		for _, w := range d.dels[x : x+int(v.nDel)] {
			put(w)
		}
		a += int(v.nAdd)
		x += int(v.nDel)
	}
}

var (
	errDeltaBody = errors.New("remote: malformed read body")
	// errBaseGone is a body from the empty version continuing a diff.
	errBaseGone = fmt.Errorf("%w: base gone mid-read", errDeltaBody)
)

// decode appends one response chunk to d and returns its status. Nothing is
// sized from a peer-supplied header: a first pass checks every vertex
// header against the bytes that follow it — ids ascending; on a body from
// the empty version every id from where the last chunk ended (0 on the
// first), no deletes, the last chunk ending at order — and only then are
// the slices grown, once, by the counts it found. A later chunk must
// continue the same kind of body for the same target (order, m), and a
// chunk that asks for more must carry a vertex to continue after.
func (d *delta) decode(b *rpc.Body, weighted bool) (uint8, error) {
	status, order, m, more, nv := b.U8(), b.U32(), b.U64(), b.U8(), b.U32()
	empty, got := status != deltaOK, uint64(len(d.verts))+uint64(nv)
	switch {
	case b.Err() != nil || status > deltaTooLarge || more > 1 || more == 1 && nv == 0 || uint64(nv)*16 > uint64(b.Len()):
		return 0, fmt.Errorf("%w: status %d, more %d, %d vertices in %d bytes", errDeltaBody, status, more, nv, b.Len())
	case d.more && empty && !d.empty:
		return status, errBaseGone
	case d.more && (order != d.order || m != d.m || empty != d.empty):
		return 0, fmt.Errorf("%w: target changed mid-fetch (order %d→%d, m %d→%d)", errDeltaBody, d.order, order, d.m, m)
	case empty && (got > uint64(order) || (more == 0) != (got == uint64(order))):
		return 0, fmt.Errorf("%w: ids up to %d of %d, more %d", errDeltaBody, got, order, more)
	}
	addW := uint64(4)
	if weighted {
		addW = 8
	}
	scan, prev := *b, int64(-1)
	if n := len(d.verts); n > 0 {
		prev = int64(d.verts[n-1].id)
	}
	var nAdd, nDel uint64
	for i := uint32(0); i < nv; i++ {
		id, deg, a, x := scan.U32(), scan.U32(), scan.U32(), scan.U32()
		if scan.Err() != nil || int64(id) <= prev || empty && (int64(id) != prev+1 || a != deg || x != 0) {
			return 0, fmt.Errorf("%w: vertex %d (degree %d, +%d −%d) after %d", errDeltaBody, id, deg, a, x, prev)
		}
		size := uint64(a)*addW + uint64(x)*4
		if size > uint64(scan.Len()) {
			return 0, fmt.Errorf("%w: vertex %d claims %d adds, %d dels in %d bytes", errDeltaBody, id, a, x, scan.Len())
		}
		scan.Bytes(int(size))
		prev, nAdd, nDel = int64(id), nAdd+uint64(a), nDel+uint64(x)
	}
	if scan.Len() != 0 {
		return 0, fmt.Errorf("%w: %d trailing bytes", errDeltaBody, scan.Len())
	}
	d.order, d.m, d.more, d.empty = order, m, more == 1, empty
	d.verts = slices.Grow(d.verts, int(nv))
	d.adds = slices.Grow(d.adds, int(nAdd))
	if weighted {
		d.wts = slices.Grow(d.wts, int(nAdd))
	}
	d.dels = slices.Grow(d.dels, int(nDel))
	for i := uint32(0); i < nv; i++ {
		v := deltaVertex{id: b.U32(), deg: b.U32(), nAdd: b.U32(), nDel: b.U32()}
		for j := uint32(0); j < v.nAdd; j++ {
			d.adds = append(d.adds, b.U32())
		}
		for j := uint32(0); weighted && j < v.nAdd; j++ {
			d.wts = append(d.wts, b.F32())
		}
		for j := uint32(0); j < v.nDel; j++ {
			d.dels = append(d.dels, b.U32())
		}
		d.verts = append(d.verts, v)
	}
	return status, b.Err()
}

// view builds the CSR of a complete diff from the empty version: degrees
// from the entries, neighbors and weights aliasing the decoded adds and wts.
// decode has checked that the entries run from 0 to order, each with its
// degree's worth of adds.
func (d *delta) view(weighted bool) (*remoteView, error) {
	if !d.empty || len(d.verts) != int(d.order) || uint64(len(d.adds)) != d.m {
		return nil, fmt.Errorf("%w: %d of %d vertices, %d of %d edges", errDeltaBody, len(d.verts), d.order, len(d.adds), d.m)
	}
	v := &remoteView{order: int(d.order), m: d.m, weighted: weighted,
		degs: make([]int32, d.order), offs: make([]uint64, d.order+1), nbrs: d.adds, wts: d.wts}
	for u, dv := range d.verts {
		v.degs[u] = int32(dv.deg)
		v.offs[u+1] = v.offs[u] + uint64(dv.deg)
	}
	// Growth over several chunks can leave a quarter of the array unused; a
	// view lives long enough to be worth one exact copy.
	if cap(v.nbrs) > len(v.nbrs)+len(v.nbrs)/16 {
		v.nbrs, v.wts = slices.Clone(v.nbrs), slices.Clone(v.wts)
	}
	return v, nil
}
