package ctree

import "repro/internal/encoding"

// Insert returns t with e added carrying the zero payload; if e is already
// present, t is returned unchanged (the stored payload survives). O(log n
// + b) expected work: inserting a non-head re-encodes one chunk; inserting
// a head splits the chunk it lands in and copies one root-to-leaf path
// (the advantage over B-trees shown in the paper's Figure 2).
func (t Tree[V]) Insert(e uint32) Tree[V] {
	if t.Contains(e) {
		return t
	}
	var z V
	return t.Put(e, z)
}

// Put returns t with (e, v) stored, overwriting any existing payload of e.
func (t Tree[V]) Put(e uint32, v V) Tree[V] {
	t = t.norm()
	if t.h.p.isHead(e) {
		// Elements greater than e up to the next head become e's tail;
		// SplitKV exposes them as the right part's prefix (and drops any
		// previous copy of e).
		l, _, _, r := t.SplitKV(e)
		return t.wrap(t.h.ops.Join(l.root, e, tail[V]{hv: v, c: r.prefix}, r.root), l.prefix)
	}
	// Non-head: e joins the chunk that covers it.
	n, ok := t.h.ops.FindLE(t.root, e)
	if !ok {
		return t.wrap(t.root, encoding.InsertKV(t.h.p.Codec, t.prefix, e, v, true))
	}
	nt := tail[V]{hv: n.Val().hv, c: encoding.InsertKV(t.h.p.Codec, n.Val().c, e, v, true)}
	return t.wrap(t.h.ops.Insert(t.root, n.Key(), nt, nil), t.prefix)
}

// Delete returns t with e removed (no-op when absent).
func (t Tree[V]) Delete(e uint32) Tree[V] {
	t = t.norm()
	if t.h.p.isHead(e) {
		l, found, r := t.Split(e)
		if !found {
			return t
		}
		// e's orphaned tail (r's prefix) re-attaches to the preceding
		// chunk.
		return t.concat(l, r.prefix, r.root)
	}
	if encoding.ContainsKV[V](t.h.p.Codec, t.prefix, e) {
		return t.wrap(t.root, encoding.RemoveKV[V](t.h.p.Codec, t.prefix, e))
	}
	n, ok := t.h.ops.FindLE(t.root, e)
	if !ok || !encoding.ContainsKV[V](t.h.p.Codec, n.Val().c, e) {
		return t
	}
	nt := tail[V]{hv: n.Val().hv, c: encoding.RemoveKV[V](t.h.p.Codec, n.Val().c, e)}
	return t.wrap(t.h.ops.Insert(t.root, n.Key(), nt, nil), t.prefix)
}

// MultiInsert returns t with the strictly increasing elements of batch
// added carrying zero payloads; payloads of elements already present are
// preserved. Implemented as Union with a tree built over the batch (paper
// §4.1).
func (t Tree[V]) MultiInsert(batch []uint32) Tree[V] {
	if len(batch) == 0 {
		return t
	}
	t = t.norm()
	// Keep-old with the interned policy pair: no closure per call.
	return t.unionPair(t.BuildLike(batch, nil), t.h.takeOld, t.h.takeNew)
}

// MultiInsertKV returns t with the strictly increasing ids added carrying
// vals; collisions with existing elements store merge(oldVal, newVal), or
// the new value when merge is nil (last-writer-wins).
func (t Tree[V]) MultiInsertKV(ids []uint32, vals []V, merge func(old, new V) V) Tree[V] {
	if len(ids) == 0 {
		return t
	}
	return t.UnionWith(t.BuildLike(ids, vals), merge)
}

// MultiDelete returns t without the strictly increasing elements of batch.
func (t Tree[V]) MultiDelete(batch []uint32) Tree[V] {
	if len(batch) == 0 {
		return t
	}
	return t.Difference(t.BuildLike(batch, nil))
}

// IntersectSlice intersects the tree with a sorted slice, returning the
// common elements. Useful for triangle-style queries on adjacency sets.
func (t Tree[V]) IntersectSlice(sorted []uint32) []uint32 {
	var out []uint32
	i := 0
	t.ForEach(func(e uint32) bool {
		for i < len(sorted) && sorted[i] < e {
			i++
		}
		if i >= len(sorted) {
			return false
		}
		if sorted[i] == e {
			out = append(out, e)
			i++
		}
		return true
	})
	return out
}
