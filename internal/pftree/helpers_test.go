package pftree

// Tree is the suite's handle on a tree: an Ops plus a root, with the
// persistent operations as methods so model tests read as sequences of
// versions.
type Tree[K, V, A any] struct {
	ops  *Ops[K, V, A]
	root *Node[K, V, A]
}

// New returns an empty tree using the given comparison and augmentation.
func New[K, V, A any](cmp func(a, b K) int, aug Augment[K, V, A]) Tree[K, V, A] {
	return Tree[K, V, A]{ops: &Ops[K, V, A]{Cmp: cmp, Aug: aug}}
}

// Wrap builds a Tree from an Ops and a root produced by node-level operations.
func Wrap[K, V, A any](ops *Ops[K, V, A], root *Node[K, V, A]) Tree[K, V, A] {
	return Tree[K, V, A]{ops: ops, root: root}
}

func (t Tree[K, V, A]) Ops() *Ops[K, V, A]        { return t.ops }
func (t Tree[K, V, A]) Root() *Node[K, V, A]      { return t.root }
func (t Tree[K, V, A]) Size() int                 { return t.root.Size() }
func (t Tree[K, V, A]) AugVal() A                 { return t.ops.AugOf(t.root) }
func (t Tree[K, V, A]) Find(k K) (V, bool)        { return t.ops.Find(t.root, k) }
func (t Tree[K, V, A]) ForEach(f func(K, V) bool) { t.ops.ForEach(t.root, f) }
func (t Tree[K, V, A]) ForEachPar(f func(K, V))   { t.ops.ForEachPar(t.root, f) }

func (t Tree[K, V, A]) CheckInvariants(eq func(a, b A) bool) error {
	return t.ops.CheckInvariants(t.root, eq)
}

// Insert adds (k, v), replacing an existing value.
func (t Tree[K, V, A]) Insert(k K, v V) Tree[K, V, A] {
	return Wrap(t.ops, t.ops.Insert(t.root, k, v, nil))
}

// InsertWith adds (k, v), merging an existing value with combine(old, new).
func (t Tree[K, V, A]) InsertWith(k K, v V, combine func(old, new V) V) Tree[K, V, A] {
	return Wrap(t.ops, t.ops.Insert(t.root, k, v, combine))
}

// Delete removes key k if present.
func (t Tree[K, V, A]) Delete(k K) Tree[K, V, A] {
	return Wrap(t.ops, deleteKey(t.ops, t.root, k))
}

// BuildSorted replaces the contents of t with the sorted entries.
func (t Tree[K, V, A]) BuildSorted(entries []Entry[K, V]) Tree[K, V, A] {
	return Wrap(t.ops, t.ops.BuildSorted(entries))
}

// MultiInsert inserts the entries one by one, merging an existing value
// with combine(old, new) (replacing it when combine is nil).
func (t Tree[K, V, A]) MultiInsert(entries []Entry[K, V], combine func(old, new V) V) Tree[K, V, A] {
	for _, e := range entries {
		t = t.InsertWith(e.Key, e.Val, combine)
	}
	return t
}

// MultiDelete removes the keys one by one.
func (t Tree[K, V, A]) MultiDelete(keys []K) Tree[K, V, A] {
	for _, k := range keys {
		t = t.Delete(k)
	}
	return t
}

// Keys returns all keys in order.
func (t Tree[K, V, A]) Keys() []K {
	out := make([]K, 0, t.Size())
	t.ForEach(func(k K, _ V) bool {
		out = append(out, k)
		return true
	})
	return out
}

// deleteKey returns t without key k, by join: the node holding k becomes
// the Join2 of its children, and every node above it is re-joined. When k
// is absent t itself is returned.
func deleteKey[K, V, A any](o *Ops[K, V, A], t *Node[K, V, A], k K) *Node[K, V, A] {
	if t == nil {
		return nil
	}
	switch c := o.Cmp(k, t.key); {
	case c == 0:
		return o.Join2(t.left, t.right)
	case c < 0:
		if l := deleteKey(o, t.left, k); l != t.left {
			return o.Join(l, t.key, t.val, t.right)
		}
	default:
		if r := deleteKey(o, t.right, k); r != t.right {
			return o.Join(t.left, t.key, t.val, r)
		}
	}
	return t
}
