package aspen

import (
	"repro/internal/ctree"
	"repro/internal/parallel"
)

// This file is the batch-update engine behind GraphOf[V] — Graph (V =
// struct{}), WeightedGraph (V = float32) or any other fixed-width payload:
// one radix-sorted, fused vertex-tree pass per batch. It is the
// paper's batch-update algorithm (§5) — sort, group, build per-source edge
// C-trees, then MultiInsert into the vertex-tree with a combine function
// that unions edge trees — extended two ways: payloads (edge weights, and any
// future fixed-width property) ride the same compressed path, and a batch may
// mix inserts and deletes (a signed batch: each edge's last update wins), so
// a commit of several runs is still one sort and one pass. The vertex-tree
// pass is pftree's batch-driven descent (MultiUpsert) over the paged vertex
// index (pages.go): the sorted sources, grouped by page, steer it, and only
// the nodes on the paths to their pages, and those pages, are reallocated.

// signedVal is the sort companion of one update of a mixed batch: its
// payload, whether it deletes the edge, and — after the dedup — whether any
// update of the edge in the batch inserted it.
type signedVal[V ctree.Value] struct {
	val      V
	del, ins bool
}

// sortedBatch is a batch of edge updates sorted and deduplicated by packed
// (src<<32 | dst) key, ready for applyCore. A single-kind batch has kind del
// and, for inserts of a payload-carrying V, the aligned payloads vals; a
// mixed batch carries each edge's last update and its ever-inserted bit in
// comp instead.
type sortedBatch[V ctree.Value] struct {
	packed []uint64
	vals   []V
	comp   []signedVal[V]
	del    bool
}

// at reports whether update i deletes and whether any update of its edge inserts.
func (b *sortedBatch[V]) at(i int) (del, ins bool) {
	if b.comp == nil {
		return b.del, !b.del
	}
	return b.comp[i].del, b.comp[i].ins
}

// split writes the destination ids of updates [lo, hi) of b, one source's
// run, to ids[lo:hi]: those whose last update inserts first, their payloads
// to vals[lo:] of a mixed batch, then those whose last update deletes. It
// returns where the deletes begin and whether any update of the run inserts,
// in which case the source must exist afterwards.
func (b *sortedBatch[V]) split(lo, hi int, ids []uint32, vals []V) (mid int, created bool) {
	mid = lo
	for i := lo; i < hi; i++ {
		del, ins := b.at(i)
		created = created || ins
		if !del {
			ids[mid] = uint32(b.packed[i])
			if b.comp != nil && vals != nil {
				vals[mid] = b.comp[i].val
			}
			mid++
		}
	}
	for i, d := lo, mid; i < hi; i++ {
		if del, _ := b.at(i); del {
			ids[d] = uint32(b.packed[i])
			d++
		}
	}
	return mid, created
}

// upsert is what a batch does to one vertex: subtract the ids del, union
// ins, and create the vertex from ins when it is absent and created is set.
type upsert[V ctree.Value] struct {
	ins     ctree.Tree[V]
	del     []uint32
	created bool
}

// applyCore folds a sorted batch into the vertex index in one batch-driven
// descent (upsertVertices) that copies only the paths to the batch's pages
// and each touched page once. A source's edge tree becomes old.Difference(del).UnionWith(ins,
// merge) (ins and del are disjoint); merge resolves payload collisions,
// last-writer-wins when nil. The vertex rule is that of applying the runs in
// order: every endpoint of an edge some update inserts exists afterwards,
// even if a later update deletes the edge, and a delete creates no vertex.
// Destination-only endpoints ride the descent as empty edge trees. With
// dropEmpty set, a present source whose edge tree ends up empty is dropped
// (the opt-in isolated-vertex GC). O(k log n) work, polylog depth.
func applyCore[V ctree.Value](ops *vopsT[V], cls ctree.Class[V], vt *vnode[V], b sortedBatch[V], merge func(old, new V) V, dropEmpty bool) *vnode[V] {
	n := len(b.packed)
	starts := parallel.PackIndices(n, func(i int) bool { return i == 0 || b.packed[i]>>32 != b.packed[i-1]>>32 })
	ids, vals := make([]uint32, n), b.vals
	if b.comp != nil && PayloadWidth[V]() > 0 {
		vals = make([]V, n)
	}
	keys, ups := make([]uint32, len(starts)), make([]upsert[V], len(starts))
	// One prototype tree interns the per-V operation table; every edge tree
	// of the batch is built from it instead of re-resolving the table.
	proto := ctree.NewKV[V](cls.Params())
	parallel.ForGrain(len(starts), 16, func(k int) {
		lo, hi := int(starts[k]), n
		if k+1 < len(starts) {
			hi = int(starts[k+1])
		}
		keys[k] = uint32(b.packed[lo] >> 32)
		mid, created := b.split(lo, hi, ids, vals)
		u := &ups[k]
		u.ins, u.del, u.created = proto, ids[mid:hi], created
		if mid > lo {
			var vr []V
			if vals != nil {
				vr = vals[lo:mid]
			}
			u.ins = proto.BuildLike(ids[lo:mid], vr)
		}
	})
	// The endpoints inserts make exist: in ids, once the insert trees are
	// built, unless a mixed batch's deletes still need it.
	ends := ids[:0]
	if b.comp != nil {
		ends = make([]uint32, 0, n)
	}
	for i, k := range b.packed {
		if _, ins := b.at(i); ins {
			ends = append(ends, uint32(k))
		}
	}
	if extra := missingEndpoints(ops, cls, vt, keys, ups, ends); len(extra) > 0 {
		keys, ups = mergeEndpoints(keys, ups, extra, upsert[V]{ins: proto, created: true})
	}
	return upsertVertices(ops, cls, vt, keys, func(i int, old ctree.Tree[V], found bool) (ctree.Tree[V], bool) {
		u := &ups[i]
		if !found {
			return u.ins, u.created
		}
		if len(u.del) > 0 { // built here, where the descent found the source
			old = old.Difference(proto.BuildLike(u.del, nil))
		}
		if !u.ins.Empty() {
			old = old.UnionWith(u.ins, merge)
		}
		return old, !(dropEmpty && old.Empty())
	})
}

// missingEndpoints returns, sorted, the ids in ends that are neither batch
// sources nor vertices of vt — the endpoints the batch must create so
// traversals can land on them. An id in ends that is a batch source costs no
// lookup: its update (ups is aligned with srcs) is marked created. On a
// symmetrised batch that is every id. It sorts ends in place.
func missingEndpoints[V ctree.Value](ops *vopsT[V], cls ctree.Class[V], vt *vnode[V], srcs []uint32, ups []upsert[V], ends []uint32) []uint32 {
	parallel.RadixSortUint32(ends)
	ends = parallel.DedupSortedUint32(ends)
	w, j := 0, 0
	for _, d := range ends {
		for j < len(srcs) && srcs[j] < d {
			j++
		}
		if j < len(srcs) && srcs[j] == d {
			ups[j].created = true
			continue
		}
		ends[w] = d
		w++
	}
	return parallel.FilterUint32(ends[:w], func(d uint32) bool {
		_, ok := findVertex(ops, cls, vt, d)
		return !ok
	})
}

// mergeEndpoints merges extra (sorted ids, disjoint from keys) into the
// sorted keys and their aligned updates, each with the update empty.
func mergeEndpoints[U any](keys []uint32, ups []U, extra []uint32, empty U) ([]uint32, []U) {
	outK := make([]uint32, 0, len(keys)+len(extra))
	outU := make([]U, 0, len(keys)+len(extra))
	i := 0
	for _, d := range extra {
		for i < len(keys) && keys[i] < d {
			outK, outU = append(outK, keys[i]), append(outU, ups[i])
			i++
		}
		outK, outU = append(outK, d), append(outU, empty)
	}
	return append(outK, keys[i:]...), append(outU, ups[i:]...)
}

// collectIsolatedCore removes every vertex with an empty edge tree.
func collectIsolatedCore[V ctree.Value](ops *vopsT[V], cls ctree.Class[V], vt *vnode[V]) *vnode[V] {
	ids, trees := vertices(ops, cls, vt)
	w := 0
	for i, et := range trees {
		if !et.Empty() {
			ids[w], trees[w] = ids[i], et
			w++
		}
	}
	if w == len(ids) {
		return vt
	}
	return buildPages(ops, ids[:w], func(i int) ctree.Tree[V] { return trees[i] })
}
