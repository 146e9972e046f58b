package ctree

import (
	"math"

	"repro/internal/encoding"
	"repro/internal/parallel"
)

// This file implements the C-tree batch algorithms of §4: Split
// (Algorithm 3), Union (Algorithm 1) with its prefix base case UnionBC
// (Algorithm 2), and the symmetric Difference and Intersect — generalized
// to carry per-element payloads. Payload collisions are resolved by a merge
// policy threaded through the recursion; because the recursion swaps the
// roles of its operands (a prefix-only side is always merged *into* the
// chunked side), every entry point materializes both orientations of the
// policy once — fwd(av, bv) and rev(bv, av) — so no closures are allocated
// inside the recursion.

// Split partitions t around k: left receives elements < k, right elements
// > k, and found reports whether k was present. O(b log n) work w.h.p.
func (t Tree[V]) Split(k uint32) (left Tree[V], found bool, right Tree[V]) {
	l, _, found, r := t.SplitKV(k)
	return l, found, r
}

// SplitKV is Split returning k's payload as well.
func (t Tree[V]) SplitKV(k uint32) (left Tree[V], v V, found bool, right Tree[V]) {
	t = t.norm()
	return t.splitRec(t.root, t.prefix, k)
}

// splitRec implements Algorithm 3 on a (root, prefix) pair.
func (t Tree[V]) splitRec(root *hnode[V], prefix encoding.Chunk, k uint32) (Tree[V], V, bool, Tree[V]) {
	var z V
	if root == nil && prefix.Empty() {
		return t.wrap(nil, nil), z, false, t.wrap(nil, nil)
	}
	if !prefix.Empty() {
		switch {
		case k < prefix.First():
			return t.wrap(nil, nil), z, false, t.wrap(root, prefix)
		case k <= prefix.Last():
			pl, pv, found, pr := encoding.SplitKV[V](t.h.p.Codec, prefix, k)
			return t.wrap(nil, pl), pv, found, t.wrap(root, pr)
		default:
			lt, fv, found, gt := t.splitRec(root, nil, k)
			// lt.prefix is empty when the input prefix is empty, so
			// the left side keeps the original prefix.
			return t.wrap(lt.root, t.chunkUnion(prefix, lt.prefix, nil)), fv, found, gt
		}
	}
	if root == nil {
		return t.wrap(nil, nil), z, false, t.wrap(nil, nil)
	}
	l, h, v, r := root.Left(), root.Key(), root.Val(), root.Right()
	switch {
	case k == h:
		return t.wrap(l, nil), v.hv, true, t.wrap(r, v.c)
	case k < h:
		ll, fv, found, lgt := t.splitRec(l, nil, k)
		return ll, fv, found, t.wrap(t.h.ops.Join(lgt.root, h, v, r), lgt.prefix)
	default: // k > h: k may split h's tail, else recurse right.
		if !v.c.Empty() && k <= v.c.Last() {
			vl, fv, found, vr := encoding.SplitKV[V](t.h.p.Codec, v.c, k)
			return t.wrap(t.h.ops.Join(l, h, tail[V]{hv: v.hv, c: vl}, nil), nil), fv, found, t.wrap(r, vr)
		}
		rl, fv, found, rgt := t.splitRec(r, nil, k)
		return t.wrap(t.h.ops.Join(l, h, v, rl.root), rl.prefix), fv, found, rgt
	}
}

// splitGE partitions t into elements < k and elements >= k (k, unlike in
// Split, is kept on the right with its payload). Used by
// Difference/Intersect to align the other tree against a head boundary.
func (t Tree[V]) splitGE(k uint64) (Tree[V], Tree[V]) {
	if k > math.MaxUint32 {
		return t, t.wrap(nil, nil)
	}
	lo, kv, found, hi := t.SplitKV(uint32(k))
	if !found {
		return lo, hi
	}
	// Re-attach k on the right. k is a head here only if it hashes as one;
	// when it does, hi's prefix is exactly k's tail. When it does not, it
	// must become the first element of hi's prefix.
	kk := uint32(k)
	if t.h.p.isHead(kk) {
		return lo, t.wrap(t.h.ops.Join(nil, kk, tail[V]{hv: kv, c: hi.prefix}, hi.root), nil)
	}
	return lo, t.wrap(hi.root, encoding.InsertKV(t.h.p.Codec, hi.prefix, kk, kv, false))
}

// Union returns the set union of t and u; payloads of elements present in
// both sides keep u's value (last-writer-wins with u as the newer side).
// Parallel; O(b^2 k log(n/k + 1)) expected work (paper Theorem 10.2).
func (t Tree[V]) Union(u Tree[V]) Tree[V] { return t.UnionWith(u, nil) }

// UnionWith is Union with an explicit payload merge policy: elements
// present in both trees store merge(tVal, uVal). A nil merge keeps u's
// value.
func (t Tree[V]) UnionWith(u Tree[V], merge func(tv, uv V) V) Tree[V] {
	t, u = t.norm(), u.norm()
	// Materialize both orientations once. The nil (LWW) policy reuses the
	// function values interned in the per-V config — materializing a
	// generic function reference allocates its dictionary-carrying funcval,
	// which would cost one allocation per Union; a custom policy pays one
	// closure for the reversed direction.
	if merge == nil {
		return t.unionPair(u, t.h.takeNew, t.h.takeOld)
	}
	return t.unionPair(u, merge, func(b, a V) V { return merge(a, b) })
}

// unionPair is the Union entry taking both pre-oriented merge policies
// (rev(bv, av) must equal fwd(av, bv)); it lets callers holding interned
// policy pairs skip the closure UnionWith builds for custom merges.
func (t Tree[V]) unionPair(u Tree[V], fwd, rev func(V, V) V) Tree[V] {
	t.samep(u)
	t, u = t.norm(), u.norm()
	return t.unionRec(t, u, fwd, rev)
}

// unionRec merges a and b with fwd(aVal, bVal) resolving collisions
// (rev is fwd with swapped arguments, threaded so role swaps stay free).
func (t Tree[V]) unionRec(a, b Tree[V], fwd, rev func(V, V) V) Tree[V] {
	switch {
	case a.Empty():
		return b
	case b.Empty():
		return a
	case a.root == nil:
		return t.unionBC(a.prefix, b, fwd, rev)
	case b.root == nil:
		return t.unionBC(b.prefix, a, rev, fwd)
	}
	// Expose b's root and split a around it (Algorithm 1).
	l2, k2, v2, r2 := b.root.Left(), b.root.Key(), b.root.Val(), b.root.Right()
	aLess, ak2, aHasK2, aGr := a.splitRec(a.root, a.prefix, k2)
	hv := v2.hv
	if aHasK2 {
		hv = fwd(ak2, v2.hv)
	}
	// Elements of k2's tail that fall past aGr's first head belong to
	// tails inside aGr; symmetric for aGr's prefix vs r2's first head.
	vl, vr := t.splitChunkBelow(v2.c, smallestHead(t.h.ops, aGr.root))
	pl, pr := t.splitChunkBelow(aGr.prefix, smallestHead(t.h.ops, r2))
	// vl is b-side, pl is a-side: resolve collisions as fwd(aVal, bVal)
	// via the reversed orientation.
	tl := t.chunkUnion(vl, pl, rev)
	la, lb, ra, rb := aLess, t.wrap(l2, b.prefix), t.wrap(aGr.root, pr), t.wrap(r2, vr)
	var cl, cr Tree[V]
	if splits(a.root, b.root) {
		var l, r Tree[V]
		parallel.Do(
			func() { l = t.unionRec(la, lb, fwd, rev) },
			func() { r = t.unionRec(ra, rb, fwd, rev) },
		)
		cl, cr = l, r
	} else {
		cl, cr = t.unionRec(la, lb, fwd, rev), t.unionRec(ra, rb, fwd, rev)
	}
	// cr's prefix is provably empty (every element of pr and vr follows
	// the first head on the right); merging defensively keeps the
	// invariant even so.
	if !cr.prefix.Empty() {
		tl = t.chunkUnion(tl, cr.prefix, nil)
	}
	return t.wrap(t.h.ops.Join(cl.root, k2, tail[V]{hv: hv, c: tl}, cr.root), cl.prefix)
}

// unionBC merges a prefix-only C-tree (chunk p) into c (Algorithm 2).
// Collisions resolve as mPC(pVal, cVal); mCP is the reverse orientation.
// A prefix-only tree contains no head-hashed elements, so p never collides
// with a head of c.
func (t Tree[V]) unionBC(p encoding.Chunk, c Tree[V], mPC, mCP func(V, V) V) Tree[V] {
	if p.Empty() {
		return c
	}
	if c.root == nil {
		return t.wrap(nil, t.chunkUnion(p, c.prefix, mPC))
	}
	pl, pr := t.splitChunkBelow(p, smallestHead(t.h.ops, c.root))
	prefix := t.chunkUnion(pl, c.prefix, mPC)
	root := c.root
	if !pr.Empty() {
		// Group pr's elements by the head whose tail they join, walking the
		// head tree in order alongside pr's element stream: the cursor
		// advances O(1) amortized per run instead of the former
		// FindLE-per-element probes (O(log n) each).
		var cur headCursor[V]
		cur.init(c.root)
		it := encoding.NewIterKV[V](t.h.p.Codec, pr)
		if uint64(it.Value()) < smallestHead(t.h.ops, c.root) {
			panic("ctree: unionBC element precedes every head")
		}
		for it.Valid() {
			cur.seek(it.Value())
			node := cur.node()
			g := encoding.NewBuilderKV[V](t.h.p.Codec)
			for it.Valid() && uint64(it.Value()) < cur.nextKey() {
				g.AppendKV(it.Value(), it.Payload())
				it.Next()
			}
			// Existing tail is c-side, the group is p-side.
			merged := t.chunkUnion(node.Val().c, g.Chunk(), mCP)
			g.Release()
			root = t.h.ops.Insert(root, node.Key(), tail[V]{hv: node.Val().hv, c: merged}, nil)
		}
	}
	return t.wrap(root, prefix)
}

// headCursor is an explicit-stack in-order cursor over a head tree with
// one node of lookahead, used by unionBC to locate each element's head in
// O(1) amortized instead of a root-to-leaf search. The stack is an array
// inside the cursor, so a cursor declared in a function stays in its frame:
// a weight-balanced tree (alpha = 0.29) of n < 2^32 heads is at most
// log(n)/log(1/0.71) < 65 deep.
type headCursor[V Value] struct {
	stack [72]*hnode[V]
	depth int
	cur   *hnode[V]
	next  *hnode[V]
}

func (c *headCursor[V]) init(root *hnode[V]) {
	c.pushLeft(root)
	c.cur = c.pop()
	c.next = c.pop()
}

func (c *headCursor[V]) pushLeft(n *hnode[V]) {
	for n != nil {
		c.stack[c.depth] = n
		c.depth++
		n = n.Left()
	}
}

// pop removes and returns the next in-order node, descending into its right
// subtree; nil when exhausted.
func (c *headCursor[V]) pop() *hnode[V] {
	if c.depth == 0 {
		return nil
	}
	c.depth--
	n := c.stack[c.depth]
	c.pushLeft(n.Right())
	return n
}

// node returns the cursor's current head node.
func (c *headCursor[V]) node() *hnode[V] { return c.cur }

// nextKey returns the key of the successor head, or +infinity at the end.
func (c *headCursor[V]) nextKey() uint64 {
	if c.next == nil {
		return math.MaxUint64
	}
	return uint64(c.next.Key())
}

// seek advances the cursor until it rests on the last head <= e. e must be
// >= the current head's key.
func (c *headCursor[V]) seek(e uint32) {
	for c.next != nil && c.next.Key() <= e {
		c.cur = c.next
		c.next = c.pop()
	}
}

// splits reports whether a set operation over trees rooted at a and b runs
// its two recursive calls on two workers: both trees must be large enough.
// Callers declare the results the workers write only on that path, so a
// serial step keeps its results on the stack.
func splits[V Value](a, b *hnode[V]) bool {
	const par = 1 << 9
	return parallel.Procs > 1 && a.Size() > par && b.Size() > par
}

// Difference returns the elements of t not present in u, keeping t's
// payloads. Pointer-identical trees (shared across versions)
// short-circuit to empty.
func (t Tree[V]) Difference(u Tree[V]) Tree[V] {
	t.samep(u)
	t, u = t.norm(), u.norm()
	if t.EqualRep(u) {
		return t.wrap(nil, nil)
	}
	return t.diffRec(t, u)
}

func (t Tree[V]) diffRec(a, b Tree[V]) Tree[V] {
	switch {
	case a.Empty() || b.Empty():
		return a
	case a.root == nil:
		// Filter a's prefix by membership in b, streaming straight from the
		// encoded form into the result encoding.
		out := encoding.NewBuilderKV[V](t.h.p.Codec)
		for it := encoding.NewIterKV[V](t.h.p.Codec, a.prefix); it.Valid(); it.Next() {
			if !b.Contains(it.Value()) {
				out.AppendKV(it.Value(), it.Payload())
			}
		}
		c := out.Chunk()
		out.Release()
		return t.wrap(nil, c)
	case b.root == nil:
		// Remove b's few prefix elements one by one.
		res := a
		t.chunkForEach(b.prefix, func(e uint32) bool {
			res = res.Delete(e)
			return true
		})
		return res
	}
	l1, k1, v1, r1 := a.root.Left(), a.root.Key(), a.root.Val(), a.root.Right()
	bLess, _, foundK1, bGr := b.splitRec(b.root, b.prefix, k1)
	bIn, bHi := bGr.splitGE(smallestHead(t.h.ops, r1))
	la, ra := t.wrap(l1, a.prefix), t.wrap(r1, nil)
	var cl, cr Tree[V]
	if splits(a.root, b.root) {
		var l, r Tree[V]
		parallel.Do(
			func() { l = t.diffRec(la, bLess) },
			func() { r = t.diffRec(ra, bHi) },
		)
		cl, cr = l, r
	} else {
		cl, cr = t.diffRec(la, bLess), t.diffRec(ra, bHi)
	}
	// Strip from k1's tail the elements deleted by bIn.
	v1p := v1.c
	if !bIn.Empty() && !v1.c.Empty() {
		out := encoding.NewBuilderKV[V](t.h.p.Codec)
		for it := encoding.NewIterKV[V](t.h.p.Codec, v1.c); it.Valid(); it.Next() {
			if !bIn.Contains(it.Value()) {
				out.AppendKV(it.Value(), it.Payload())
			}
		}
		v1p = out.Chunk()
		out.Release()
	}
	mid := t.chunkUnion(v1p, cr.prefix, nil)
	if !foundK1 {
		return t.wrap(t.h.ops.Join(cl.root, k1, tail[V]{hv: v1.hv, c: mid}, cr.root), cl.prefix)
	}
	return t.concat(cl, mid, cr.root)
}

// Intersect returns the elements common to t and u, keeping t's payloads.
func (t Tree[V]) Intersect(u Tree[V]) Tree[V] {
	t.samep(u)
	t, u = t.norm(), u.norm()
	return t.interRec(t, u)
}

func (t Tree[V]) interRec(a, b Tree[V]) Tree[V] {
	switch {
	case a.Empty() || b.Empty():
		return t.wrap(nil, nil)
	case a.root == nil:
		out := encoding.NewBuilderKV[V](t.h.p.Codec)
		for it := encoding.NewIterKV[V](t.h.p.Codec, a.prefix); it.Valid(); it.Next() {
			if b.Contains(it.Value()) {
				out.AppendKV(it.Value(), it.Payload())
			}
		}
		c := out.Chunk()
		out.Release()
		return t.wrap(nil, c)
	case b.root == nil:
		// b is a small prefix: keep a's entries whose ids appear in it.
		// (The roles cannot simply be swapped as in the unweighted code —
		// the result must carry a's payloads.)
		out := encoding.NewBuilderKV[V](t.h.p.Codec)
		t.chunkForEach(b.prefix, func(e uint32) bool {
			if v, ok := a.Find(e); ok {
				out.AppendKV(e, v)
			}
			return true
		})
		c := out.Chunk()
		out.Release()
		return t.wrap(nil, c)
	}
	l1, k1, v1, r1 := a.root.Left(), a.root.Key(), a.root.Val(), a.root.Right()
	bLess, _, foundK1, bGr := b.splitRec(b.root, b.prefix, k1)
	bIn, bHi := bGr.splitGE(smallestHead(t.h.ops, r1))
	la, ra := t.wrap(l1, a.prefix), t.wrap(r1, nil)
	var cl, cr Tree[V]
	if splits(a.root, b.root) {
		var l, r Tree[V]
		parallel.Do(
			func() { l = t.interRec(la, bLess) },
			func() { r = t.interRec(ra, bHi) },
		)
		cl, cr = l, r
	} else {
		cl, cr = t.interRec(la, bLess), t.interRec(ra, bHi)
	}
	var v1p encoding.Chunk
	if !bIn.Empty() && !v1.c.Empty() {
		out := encoding.NewBuilderKV[V](t.h.p.Codec)
		for it := encoding.NewIterKV[V](t.h.p.Codec, v1.c); it.Valid(); it.Next() {
			if bIn.Contains(it.Value()) {
				out.AppendKV(it.Value(), it.Payload())
			}
		}
		v1p = out.Chunk()
		out.Release()
	}
	mid := t.chunkUnion(v1p, cr.prefix, nil)
	if foundK1 {
		return t.wrap(t.h.ops.Join(cl.root, k1, tail[V]{hv: v1.hv, c: mid}, cr.root), cl.prefix)
	}
	return t.concat(cl, mid, cr.root)
}

// concat glues a left C-tree, a middle chunk (elements between cl's last
// element and rroot's first head) and a right head tree whose prefix has
// already been absorbed into mid. It is the C-tree analogue of Join2.
func (t Tree[V]) concat(cl Tree[V], mid encoding.Chunk, rroot *hnode[V]) Tree[V] {
	if cl.root == nil {
		return t.wrap(rroot, t.chunkUnion(cl.prefix, mid, nil))
	}
	root := cl.root
	if !mid.Empty() {
		root = t.appendToLastTail(root, mid)
	}
	return t.wrap(t.h.ops.Join2(root, rroot), cl.prefix)
}

// appendToLastTail merges c into the tail of the rightmost head of root,
// copying the right spine (root must be non-nil; all elements of c follow
// every element of root).
func (t Tree[V]) appendToLastTail(root *hnode[V], c encoding.Chunk) *hnode[V] {
	last := t.h.ops.Last(root)
	merged := tail[V]{hv: last.Val().hv, c: t.chunkUnion(last.Val().c, c, nil)}
	return t.h.ops.Insert(root, last.Key(), merged, nil)
}
