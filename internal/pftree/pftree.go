// Package pftree implements purely-functional (immutable, persistent)
// weight-balanced binary search trees with augmentation, following the
// join-based algorithms of Blelloch, Ferizovic and Sun ("Just Join for
// Parallel Ordered Sets", SPAA 2016) that the paper builds on (its trees come
// from PAM [73]). Every operation leaves existing trees untouched and returns
// new roots, so any number of readers can traverse snapshots while a writer
// prepares the next version — the property Aspen's versioned graphs rely on.
//
// Trees are parameterized by key K, value V and augmented value A. The
// augmented value of a node combines the augmented values of its children
// with FromEntry(key, value); the vertex-tree uses this to maintain the total
// edge count of the graph in O(1) (paper §5), and C-trees use it to maintain
// total element counts.
//
// Set operations (Union, Intersect, Difference) are join-based; batch updates
// (MultiUpsert, and MultiInsert, MultiUpdate, MultiDelete over it) descend
// the tree steered by the sorted batch and copy only the paths to its keys.
// Both run in parallel using fork-join recursion, matching the work/depth
// bounds the paper cites.
package pftree

import (
	"slices"

	"repro/internal/parallel"
)

// Node is an immutable tree node. The zero of *Node (nil) is the empty tree.
type Node[K, V, A any] struct {
	key         K
	val         V
	left, right *Node[K, V, A]
	size        uint32 // number of nodes in this subtree
	aug         A
}

// Key returns the node's key.
func (n *Node[K, V, A]) Key() K { return n.key }

// Val returns the node's value.
func (n *Node[K, V, A]) Val() V { return n.val }

// Left returns the left subtree.
func (n *Node[K, V, A]) Left() *Node[K, V, A] { return n.left }

// Right returns the right subtree.
func (n *Node[K, V, A]) Right() *Node[K, V, A] { return n.right }

// Size returns the number of nodes in the subtree rooted at n; nil has size 0.
func (n *Node[K, V, A]) Size() int {
	if n == nil {
		return 0
	}
	return int(n.size)
}

// AugOrZero returns the augmented value of the subtree at n, or the zero A
// for nil — the allocation- and table-free form of Ops.AugOf for hot
// aggregate queries.
func (n *Node[K, V, A]) AugOrZero() A {
	if n == nil {
		var z A
		return z
	}
	return n.aug
}

// Augment describes how augmented values are computed.
type Augment[K, V, A any] struct {
	// Zero is the augmented value of the empty tree.
	Zero A
	// FromEntry maps one entry to its augmented value.
	FromEntry func(K, V) A
	// Combine merges augmented values; it must be associative with
	// identity Zero.
	Combine func(A, A) A
	// Sub, when set, is the inverse of a commutative Combine:
	// Sub(Combine(a, b), b) == a. A batch descent then re-derives a copied
	// node's augmented value from the old node's by exchanging only the
	// parts that changed, without reading the untouched sibling subtree
	// or recomputing FromEntry of an unchanged value.
	Sub func(A, A) A
}

// NoAug is the trivial augmentation for trees that do not need one.
func NoAug[K, V any]() Augment[K, V, struct{}] {
	return Augment[K, V, struct{}]{
		FromEntry: func(K, V) struct{} { return struct{}{} },
		Combine:   func(struct{}, struct{}) struct{} { return struct{}{} },
	}
}

// Ops bundles the comparison and augmentation of a tree type and hosts the
// node-level persistent algorithms. Clients that need structural access (the
// C-tree) use Ops directly; others use the Tree wrapper.
type Ops[K, V, A any] struct {
	// Cmp is a total order on keys: negative, zero or positive as a<b,
	// a==b, a>b.
	Cmp func(a, b K) int
	// Aug computes augmented values.
	Aug Augment[K, V, A]
}

// Aug returns the augmented value of the subtree at n (Zero for nil).
func (o *Ops[K, V, A]) AugOf(n *Node[K, V, A]) A {
	if n == nil {
		return o.Aug.Zero
	}
	return n.aug
}

// weight of a subtree for the balance criterion: size + 1.
func weight[K, V, A any](n *Node[K, V, A]) uint64 {
	if n == nil {
		return 1
	}
	return uint64(n.size) + 1
}

// Weight-balance parameter alpha = 0.29, inside the valid range
// (1/4, 1-1/sqrt(2)] for join-based weight-balanced trees.
const alphaNum, alphaDen = 29, 100

// balancedWeights reports whether sibling subtrees with weights wl and wr
// satisfy the alpha-weight-balance invariant.
func balancedWeights(wl, wr uint64) bool {
	s := wl + wr
	return alphaNum*s <= alphaDen*wl && alphaNum*s <= alphaDen*wr
}

// mk allocates a node over children l and r, computing size and augmentation.
func (o *Ops[K, V, A]) mk(l *Node[K, V, A], k K, v V, r *Node[K, V, A]) *Node[K, V, A] {
	n := &Node[K, V, A]{key: k, val: v, left: l, right: r}
	n.size = uint32(l.Size()+r.Size()) + 1
	n.aug = o.Aug.Combine(o.AugOf(l), o.Aug.Combine(o.Aug.FromEntry(k, v), o.AugOf(r)))
	return n
}

// keptShape reports whether l and r, the results of a batch descent into t's
// children, kept their sizes — no key came or went below t. Pointer equality
// is tried first so that an untouched sibling is not read for its size.
func keptShape[K, V, A any](t, l, r *Node[K, V, A]) bool {
	return (l == t.left || l.Size() == t.left.Size()) && (r == t.right || r.Size() == t.right.Size())
}

// remk copies t over children l and r that kept the sizes of t's own, with
// value v (changed reports whether it differs from t's), so the subtree kept
// its shape. With an invertible augmentation the copy reads nothing but t
// and the children that were themselves copied.
func (o *Ops[K, V, A]) remk(t, l *Node[K, V, A], v V, changed bool, r *Node[K, V, A]) *Node[K, V, A] {
	sub := o.Aug.Sub
	if sub == nil {
		return o.mk(l, t.key, v, r)
	}
	aug := t.aug
	if l != t.left { // equal sizes and distinct, so neither is nil
		aug = o.Aug.Combine(sub(aug, t.left.aug), l.aug)
	}
	if r != t.right {
		aug = o.Aug.Combine(sub(aug, t.right.aug), r.aug)
	}
	if changed {
		aug = o.Aug.Combine(sub(aug, o.Aug.FromEntry(t.key, t.val)), o.Aug.FromEntry(t.key, v))
	}
	return &Node[K, V, A]{key: t.key, val: v, left: l, right: r, size: t.size, aug: aug}
}

// rotateLeft returns the left rotation of n; n.right must be non-nil.
func (o *Ops[K, V, A]) rotateLeft(n *Node[K, V, A]) *Node[K, V, A] {
	r := n.right
	return o.mk(o.mk(n.left, n.key, n.val, r.left), r.key, r.val, r.right)
}

// rotateRight returns the right rotation of n; n.left must be non-nil.
func (o *Ops[K, V, A]) rotateRight(n *Node[K, V, A]) *Node[K, V, A] {
	l := n.left
	return o.mk(l.left, l.key, l.val, o.mk(l.right, n.key, n.val, n.right))
}

// Join combines l, entry (k, v) and r into a balanced tree. All keys in l
// must be smaller than k and all keys in r larger. O(|log(w(l)/w(r))|) work.
func (o *Ops[K, V, A]) Join(l *Node[K, V, A], k K, v V, r *Node[K, V, A]) *Node[K, V, A] {
	wl, wr := weight(l), weight(r)
	switch {
	case balancedWeights(wl, wr):
		return o.mk(l, k, v, r)
	case wl > wr:
		return o.joinIntoLeft(l, k, v, r)
	default:
		return o.joinIntoRight(l, k, v, r)
	}
}

// joinIntoLeft handles Join when l is too heavy: descend l's right spine
// until the remainder balances with r (joinRightWB in Just Join).
func (o *Ops[K, V, A]) joinIntoLeft(l *Node[K, V, A], k K, v V, r *Node[K, V, A]) *Node[K, V, A] {
	if balancedWeights(weight(l), weight(r)) {
		return o.mk(l, k, v, r)
	}
	t1 := o.joinIntoLeft(l.right, k, v, r)
	if balancedWeights(weight(l.left), weight(t1)) {
		return o.mk(l.left, l.key, l.val, t1)
	}
	if balancedWeights(weight(l.left), weight(t1.left)) &&
		balancedWeights(weight(l.left)+weight(t1.left), weight(t1.right)) {
		return o.rotateLeft(o.mk(l.left, l.key, l.val, t1))
	}
	return o.rotateLeft(o.mk(l.left, l.key, l.val, o.rotateRight(t1)))
}

// joinIntoRight is the mirror image of joinIntoLeft.
func (o *Ops[K, V, A]) joinIntoRight(l *Node[K, V, A], k K, v V, r *Node[K, V, A]) *Node[K, V, A] {
	if balancedWeights(weight(l), weight(r)) {
		return o.mk(l, k, v, r)
	}
	t1 := o.joinIntoRight(l, k, v, r.left)
	if balancedWeights(weight(t1), weight(r.right)) {
		return o.mk(t1, r.key, r.val, r.right)
	}
	if balancedWeights(weight(t1.right), weight(r.right)) &&
		balancedWeights(weight(t1.right)+weight(r.right), weight(t1.left)) {
		return o.rotateRight(o.mk(t1, r.key, r.val, r.right))
	}
	return o.rotateRight(o.mk(o.rotateLeft(t1), r.key, r.val, r.right))
}

// SplitLast removes and returns the maximum entry of t (t must be non-nil).
func (o *Ops[K, V, A]) SplitLast(t *Node[K, V, A]) (rest *Node[K, V, A], k K, v V) {
	if t.right == nil {
		return t.left, t.key, t.val
	}
	rest, k, v = o.SplitLast(t.right)
	return o.Join(t.left, t.key, t.val, rest), k, v
}

// SplitFirst removes and returns the minimum entry of t (t must be non-nil).
func (o *Ops[K, V, A]) SplitFirst(t *Node[K, V, A]) (rest *Node[K, V, A], k K, v V) {
	if t.left == nil {
		return t.right, t.key, t.val
	}
	rest, k, v = o.SplitFirst(t.left)
	return o.Join(rest, t.key, t.val, t.right), k, v
}

// Join2 concatenates l and r (all keys in l smaller than all keys in r).
func (o *Ops[K, V, A]) Join2(l, r *Node[K, V, A]) *Node[K, V, A] {
	if l == nil {
		return r
	}
	rest, k, v := o.SplitLast(l)
	return o.Join(rest, k, v, r)
}

// Split partitions t by key k into trees of smaller and larger keys,
// reporting k's value if present. O(log n) work.
func (o *Ops[K, V, A]) Split(t *Node[K, V, A], k K) (l *Node[K, V, A], v V, found bool, r *Node[K, V, A]) {
	if t == nil {
		return nil, v, false, nil
	}
	switch c := o.Cmp(k, t.key); {
	case c == 0:
		return t.left, t.val, true, t.right
	case c < 0:
		ll, v, found, lr := o.Split(t.left, k)
		return ll, v, found, o.Join(lr, t.key, t.val, t.right)
	default:
		rl, v, found, rr := o.Split(t.right, k)
		return o.Join(t.left, t.key, t.val, rl), v, found, rr
	}
}

// Find returns the value stored at k.
func (o *Ops[K, V, A]) Find(t *Node[K, V, A], k K) (V, bool) {
	for t != nil {
		switch c := o.Cmp(k, t.key); {
		case c == 0:
			return t.val, true
		case c < 0:
			t = t.left
		default:
			t = t.right
		}
	}
	var zero V
	return zero, false
}

// FindLE returns the entry with the largest key <= k, if any. This is the
// head lookup used by C-trees (FindHead in the paper's UnionBC).
func (o *Ops[K, V, A]) FindLE(t *Node[K, V, A], k K) (*Node[K, V, A], bool) {
	var best *Node[K, V, A]
	for t != nil {
		switch c := o.Cmp(k, t.key); {
		case c == 0:
			return t, true
		case c < 0:
			t = t.left
		default:
			best = t
			t = t.right
		}
	}
	return best, best != nil
}

// First returns the minimum node of t (nil for empty trees).
func (o *Ops[K, V, A]) First(t *Node[K, V, A]) *Node[K, V, A] {
	if t == nil {
		return nil
	}
	for t.left != nil {
		t = t.left
	}
	return t
}

// Last returns the maximum node of t (nil for empty trees).
func (o *Ops[K, V, A]) Last(t *Node[K, V, A]) *Node[K, V, A] {
	if t == nil {
		return nil
	}
	for t.right != nil {
		t = t.right
	}
	return t
}

// Insert returns t with (k, v) added; an existing value is merged with
// combine(old, new), or replaced when combine is nil.
func (o *Ops[K, V, A]) Insert(t *Node[K, V, A], k K, v V, combine func(old, new V) V) *Node[K, V, A] {
	if t == nil {
		return o.mk(nil, k, v, nil)
	}
	switch c := o.Cmp(k, t.key); {
	case c == 0:
		if combine != nil {
			v = combine(t.val, v)
		}
		return o.mk(t.left, k, v, t.right)
	case c < 0:
		return o.Join(o.Insert(t.left, k, v, combine), t.key, t.val, t.right)
	default:
		return o.Join(t.left, t.key, t.val, o.Insert(t.right, k, v, combine))
	}
}

// Delete returns t without key k (no-op if absent).
func (o *Ops[K, V, A]) Delete(t *Node[K, V, A], k K) *Node[K, V, A] {
	if t == nil {
		return nil
	}
	switch c := o.Cmp(k, t.key); {
	case c == 0:
		return o.Join2(t.left, t.right)
	case c < 0:
		return o.Join(o.Delete(t.left, k), t.key, t.val, t.right)
	default:
		return o.Join(t.left, t.key, t.val, o.Delete(t.right, k))
	}
}

// parThreshold is the subtree size above which set operations fork.
const parThreshold = 1 << 11

// Union merges t1 and t2; values of keys present in both are merged with
// combine(valueInT1, valueInT2) (t2's value wins when combine is nil).
// O(m log(n/m + 1)) work, polylog depth.
func (o *Ops[K, V, A]) Union(t1, t2 *Node[K, V, A], combine func(a, b V) V) *Node[K, V, A] {
	if t1 == nil {
		return t2
	}
	if t2 == nil {
		return t1
	}
	l1, v1, found, r1 := o.Split(t1, t2.key)
	var l, r *Node[K, V, A]
	o.maybePar(t1, t2,
		func() { l = o.Union(l1, t2.left, combine) },
		func() { r = o.Union(r1, t2.right, combine) },
	)
	v := t2.val
	if found && combine != nil {
		v = combine(v1, v)
	}
	return o.Join(l, t2.key, v, r)
}

// Intersect keeps keys present in both trees, merging values with
// combine(valueInT1, valueInT2) (t2's value when nil).
func (o *Ops[K, V, A]) Intersect(t1, t2 *Node[K, V, A], combine func(a, b V) V) *Node[K, V, A] {
	if t1 == nil || t2 == nil {
		return nil
	}
	l1, v1, found, r1 := o.Split(t1, t2.key)
	var l, r *Node[K, V, A]
	o.maybePar(t1, t2,
		func() { l = o.Intersect(l1, t2.left, combine) },
		func() { r = o.Intersect(r1, t2.right, combine) },
	)
	if found {
		v := t2.val
		if combine != nil {
			v = combine(v1, v)
		}
		return o.Join(l, t2.key, v, r)
	}
	return o.Join2(l, r)
}

// Difference returns the entries of t1 whose keys are not in t2.
func (o *Ops[K, V, A]) Difference(t1, t2 *Node[K, V, A]) *Node[K, V, A] {
	if t1 == nil || t2 == nil {
		return t1
	}
	l1, _, _, r1 := o.Split(t1, t2.key)
	var l, r *Node[K, V, A]
	o.maybePar(t1, t2,
		func() { l = o.Difference(l1, t2.left) },
		func() { r = o.Difference(r1, t2.right) },
	)
	return o.Join2(l, r)
}

// maybePar runs f and g in parallel when both trees are large.
func (o *Ops[K, V, A]) maybePar(t1, t2 *Node[K, V, A], f, g func()) {
	if parallel.Procs > 1 && t1.Size() > parThreshold && t2.Size() > parThreshold {
		parallel.Do(f, g)
	} else {
		f()
		g()
	}
}

// Entry is a key-value pair used by bulk constructors.
type Entry[K, V any] struct {
	Key K
	Val V
}

// BuildSorted constructs a perfectly balanced tree from entries sorted by
// strictly increasing key. O(n) work, O(log n) depth.
func (o *Ops[K, V, A]) BuildSorted(entries []Entry[K, V]) *Node[K, V, A] {
	n := len(entries)
	if n == 0 {
		return nil
	}
	mid := n / 2
	e := entries[mid]
	if n <= parThreshold || parallel.Procs <= 1 {
		return o.mk(o.BuildSorted(entries[:mid]), e.Key, e.Val, o.BuildSorted(entries[mid+1:]))
	}
	var l, r *Node[K, V, A]
	parallel.Do(
		func() { l = o.BuildSorted(entries[:mid]) },
		func() { r = o.BuildSorted(entries[mid+1:]) },
	)
	return o.mk(l, e.Key, e.Val, r)
}

// Batch updates (MultiUpsert and its wrappers MultiInsert, MultiUpdate,
// MultiDelete) are driven by the sorted batch, not by a second tree: at every
// node the batch is binary-searched for the node's key and the two halves
// descend into the two children. A subtree whose half is empty is returned by
// pointer, so a batch allocates exactly the nodes on the union of the
// root-to-key paths of its keys — the spine Diff prunes on. A node both of
// whose children kept their sizes gained and lost no key below it, so its
// subtree kept its shape and is rebuilt with a plain mk; Join runs only where
// a child's size changed.

// forkEntries is the batch-half size at or above which a batch descent runs
// its two halves in parallel; below it a goroutine costs more than the half.
const forkEntries = 256

// MultiUpsert applies one update to each of the sorted, duplicate-free keys
// in a single descent of t: f(i, old, found) receives the key's index in keys
// and, when t holds the key, its value, and returns the key's new value and
// whether the entry is kept. A present key that is not kept is dropped; an
// absent key that is not kept is not created; a subtree whose keys are all
// absent and not kept is returned by pointer. f is called once per index,
// possibly from several goroutines. O(m log(n/m + 1)) work, polylog depth.
func (o *Ops[K, V, A]) MultiUpsert(t *Node[K, V, A], keys []K, f func(i int, old V, found bool) (V, bool)) *Node[K, V, A] {
	return o.multiUpsert(t, keys, 0, f)
}

// multiUpsert is MultiUpsert over keys[base:] of the caller's slice, passed
// as the sub-slice plus its offset so f sees indices into the whole batch.
// An empty subtree is split at its middle key, as BuildSorted splits, so
// that when every key is kept each Join below it is a plain mk.
func (o *Ops[K, V, A]) multiUpsert(t *Node[K, V, A], keys []K, base int, f func(i int, old V, found bool) (V, bool)) *Node[K, V, A] {
	if len(keys) == 0 {
		return t
	}
	var tl, tr *Node[K, V, A]
	var v V
	i, found := len(keys)/2, false
	if t != nil {
		tl, tr, v = t.left, t.right, t.val
		i, found = slices.BinarySearchFunc(keys, t.key, o.Cmp)
	}
	lo, hi, hiBase, keep := keys[:i], keys[i:], base+i, true
	if found || t == nil {
		hi, hiBase = hi[1:], hiBase+1
		v, keep = f(base+i, v, found)
	}
	var l, r *Node[K, V, A]
	if parallel.Procs > 1 && len(lo) >= forkEntries && len(hi) >= forkEntries {
		l, r = o.multiUpsertFork(tl, tr, lo, hi, base, hiBase, f)
	} else {
		l, r = o.multiUpsert(tl, lo, base, f), o.multiUpsert(tr, hi, hiBase, f)
	}
	switch {
	case !keep:
		return o.Join2(l, r)
	case t == nil:
		return o.Join(l, keys[i], v, r)
	case !found && l == t.left && r == t.right:
		return t
	case keptShape(t, l, r):
		return o.remk(t, l, v, found, r)
	default:
		return o.Join(l, t.key, v, r)
	}
}

// multiUpsertFork is multiUpsert's parallel step. It is a function of its
// own so that the closures (which move l and r to the heap) stay out of the
// sequential path.
func (o *Ops[K, V, A]) multiUpsertFork(tl, tr *Node[K, V, A], lo, hi []K, loBase, hiBase int, f func(i int, old V, found bool) (V, bool)) (l, r *Node[K, V, A]) {
	parallel.Do(
		func() { l = o.multiUpsert(tl, lo, loBase, f) },
		func() { r = o.multiUpsert(tr, hi, hiBase, f) },
	)
	return l, r
}

// MultiInsert inserts the sorted, duplicate-free entries into t, merging
// collisions with combine(oldInTree, newFromBatch) (the batch value when
// combine is nil): MultiUpsert keeping every key. combine may be called from
// several goroutines.
func (o *Ops[K, V, A]) MultiInsert(t *Node[K, V, A], entries []Entry[K, V], combine func(old, new V) V) *Node[K, V, A] {
	keys := make([]K, len(entries))
	for i, e := range entries {
		keys[i] = e.Key
	}
	return o.MultiUpsert(t, keys, func(i int, old V, found bool) (V, bool) {
		if found && combine != nil {
			return combine(old, entries[i].Val), true
		}
		return entries[i].Val, true
	})
}

// MultiUpdate replaces or drops the values of those sorted, duplicate-free
// keys that are present in t: for such a key, f(i, old) receives its index
// in keys and its value, and returns the new value and whether the entry
// stays. Keys absent from t are skipped without calling f, and a subtree
// holding none of the keys is returned by pointer. f may be called from
// several goroutines, each index at most once. A nil f drops every key
// found.
func (o *Ops[K, V, A]) MultiUpdate(t *Node[K, V, A], keys []K, f func(i int, old V) (V, bool)) *Node[K, V, A] {
	return o.MultiUpsert(t, keys, func(i int, old V, found bool) (V, bool) {
		if !found || f == nil {
			return old, false
		}
		return f(i, old)
	})
}

// MultiDelete removes the sorted, duplicate-free keys from t.
func (o *Ops[K, V, A]) MultiDelete(t *Node[K, V, A], keys []K) *Node[K, V, A] {
	return o.MultiUpdate(t, keys, nil)
}

// ForEach applies f in key order; if f returns false iteration stops.
func (o *Ops[K, V, A]) ForEach(t *Node[K, V, A], f func(K, V) bool) bool {
	if t == nil {
		return true
	}
	return o.ForEach(t.left, f) && f(t.key, t.val) && o.ForEach(t.right, f)
}

// ForEachPar applies f to every entry in parallel (no ordering guarantee).
func (o *Ops[K, V, A]) ForEachPar(t *Node[K, V, A], f func(K, V)) {
	if t == nil {
		return
	}
	if t.Size() <= parThreshold || parallel.Procs <= 1 {
		o.ForEach(t, func(k K, v V) bool { f(k, v); return true })
		return
	}
	parallel.Do(
		func() { o.ForEachPar(t.left, f) },
		func() { f(t.key, t.val) },
		func() { o.ForEachPar(t.right, f) },
	)
}

// ForEachIndexed applies f(i, k, v) in parallel, where i is the in-order rank
// of the entry. Used to build flat snapshots in O(n) work and O(log n) depth.
func (o *Ops[K, V, A]) ForEachIndexed(t *Node[K, V, A], f func(int, K, V)) {
	o.forEachIndexed(t, 0, f)
}

func (o *Ops[K, V, A]) forEachIndexed(t *Node[K, V, A], offset int, f func(int, K, V)) {
	if t == nil {
		return
	}
	mid := offset + t.left.Size()
	if t.Size() <= parThreshold || parallel.Procs <= 1 {
		o.forEachIndexed(t.left, offset, f)
		f(mid, t.key, t.val)
		o.forEachIndexed(t.right, mid+1, f)
		return
	}
	parallel.Do(
		func() { o.forEachIndexed(t.left, offset, f) },
		func() { f(mid, t.key, t.val) },
		func() { o.forEachIndexed(t.right, mid+1, f) },
	)
}

// ForEachRankRange applies f, in key order, to every entry whose in-order
// rank lies in [lo, hi), stopping early if f returns false; it reports
// whether the traversal ran to completion. The size augmentation prunes the
// descent, so one call costs O(hi - lo + log n) — partitioning [0, Size())
// into per-worker rank ranges and issuing one call per worker yields an
// indexed parallel traversal with O(n) total work and O(n/P + log n) depth,
// the schedule flat-snapshot construction uses (paper §5.1).
func (o *Ops[K, V, A]) ForEachRankRange(t *Node[K, V, A], lo, hi int, f func(K, V) bool) bool {
	if t == nil || hi <= lo || hi <= 0 || lo >= t.Size() {
		return true
	}
	ls := t.left.Size()
	if lo < ls {
		if !o.ForEachRankRange(t.left, lo, min(hi, ls), f) {
			return false
		}
	}
	if lo <= ls && ls < hi {
		if !f(t.key, t.val) {
			return false
		}
	}
	if hi > ls+1 {
		return o.ForEachRankRange(t.right, max(lo-ls-1, 0), hi-ls-1, f)
	}
	return true
}

// Select returns the i-th entry (0-based) in key order.
func (o *Ops[K, V, A]) Select(t *Node[K, V, A], i int) (*Node[K, V, A], bool) {
	for t != nil {
		ls := t.left.Size()
		switch {
		case i < ls:
			t = t.left
		case i == ls:
			return t, true
		default:
			i -= ls + 1
			t = t.right
		}
	}
	return nil, false
}

// Rank returns the number of keys in t smaller than k.
func (o *Ops[K, V, A]) Rank(t *Node[K, V, A], k K) int {
	rank := 0
	for t != nil {
		if o.Cmp(k, t.key) <= 0 {
			t = t.left
		} else {
			rank += t.left.Size() + 1
			t = t.right
		}
	}
	return rank
}
