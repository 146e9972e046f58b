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
// with FromEntry(key, value); C-trees use it to maintain total element
// counts.
//
// Join is the one rebalancing primitive; bulk builds run in parallel using
// fork-join recursion. Diff (diff.go) walks two versions of a tree, pruning
// the subtrees they share.
package pftree

import (
	"fmt"

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
}

// Ops bundles the comparison and augmentation of a tree type and hosts the
// node-level persistent algorithms; clients hold an Ops and a root.
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

// Join2 concatenates l and r (all keys in l smaller than all keys in r).
func (o *Ops[K, V, A]) Join2(l, r *Node[K, V, A]) *Node[K, V, A] {
	if l == nil {
		return r
	}
	rest, k, v := o.SplitLast(l)
	return o.Join(rest, k, v, r)
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

// parThreshold is the subtree size above which bulk builds and parallel
// traversals fork.
const parThreshold = 1 << 11

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

// CheckInvariants verifies the BST ordering, weight-balance, size and
// augmentation bookkeeping of the tree at t. It is O(n) and meant for tests.
// The aug check uses eq; pass nil to skip it.
func (o *Ops[K, V, A]) CheckInvariants(t *Node[K, V, A], eq func(a, b A) bool) error {
	_, err := o.check(t, eq)
	return err
}

func (o *Ops[K, V, A]) check(n *Node[K, V, A], eq func(a, b A) bool) (A, error) {
	if n == nil {
		return o.Aug.Zero, nil
	}
	if n.left != nil && o.Cmp(n.left.key, n.key) >= 0 {
		return o.Aug.Zero, fmt.Errorf("pftree: order violation at left child")
	}
	if n.right != nil && o.Cmp(n.right.key, n.key) <= 0 {
		return o.Aug.Zero, fmt.Errorf("pftree: order violation at right child")
	}
	if !balancedWeights(weight(n.left), weight(n.right)) {
		return o.Aug.Zero, fmt.Errorf("pftree: balance violation: left weight %d, right weight %d",
			weight(n.left), weight(n.right))
	}
	if got, want := int(n.size), n.left.Size()+n.right.Size()+1; got != want {
		return o.Aug.Zero, fmt.Errorf("pftree: size %d, want %d", got, want)
	}
	la, err := o.check(n.left, eq)
	if err != nil {
		return o.Aug.Zero, err
	}
	ra, err := o.check(n.right, eq)
	if err != nil {
		return o.Aug.Zero, err
	}
	aug := o.Aug.Combine(la, o.Aug.Combine(o.Aug.FromEntry(n.key, n.val), ra))
	if eq != nil && !eq(aug, n.aug) {
		return o.Aug.Zero, fmt.Errorf("pftree: augmentation mismatch")
	}
	return aug, nil
}
