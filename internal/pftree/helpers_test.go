package pftree

import "slices"

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

// Delete removes key k if present: a one-key MultiUpsert that keeps nothing.
func (t Tree[K, V, A]) Delete(k K) Tree[K, V, A] {
	return Wrap(t.ops, multiDelete(t.ops, t.root, []K{k}))
}

// BuildSorted replaces the contents of t with the sorted entries.
func (t Tree[K, V, A]) BuildSorted(entries []Entry[K, V]) Tree[K, V, A] {
	return Wrap(t.ops, t.ops.BuildSorted(entries))
}

// MultiInsert bulk-inserts sorted, duplicate-free entries.
func (t Tree[K, V, A]) MultiInsert(entries []Entry[K, V], combine func(old, new V) V) Tree[K, V, A] {
	return Wrap(t.ops, multiInsert(t.ops, t.root, entries, combine))
}

// MultiDelete bulk-removes sorted keys.
func (t Tree[K, V, A]) MultiDelete(keys []K) Tree[K, V, A] {
	return Wrap(t.ops, multiDelete(t.ops, t.root, keys))
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

// The three batch policies the suite drives MultiUpsert through.

// multiInsert inserts the sorted, duplicate-free entries, merging
// collisions with combine(oldInTree, newFromBatch) (the batch value when
// combine is nil).
func multiInsert[K, V, A any](o *Ops[K, V, A], t *Node[K, V, A], entries []Entry[K, V], combine func(old, new V) V) *Node[K, V, A] {
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

// multiUpdate replaces or drops the values of those sorted keys that are
// present: f(i, old) returns the new value and whether the entry stays;
// absent keys are skipped without calling f. A nil f drops every key found.
func multiUpdate[K, V, A any](o *Ops[K, V, A], t *Node[K, V, A], keys []K, f func(i int, old V) (V, bool)) *Node[K, V, A] {
	return o.MultiUpsert(t, keys, func(i int, old V, found bool) (V, bool) {
		if !found || f == nil {
			return old, false
		}
		return f(i, old)
	})
}

// multiDelete removes the sorted, duplicate-free keys.
func multiDelete[K, V, A any](o *Ops[K, V, A], t *Node[K, V, A], keys []K) *Node[K, V, A] {
	return multiUpdate(o, t, keys, nil)
}

// fromModel builds the tree holding exactly the model's entries — the
// reference the batch descents are checked against.
func fromModel(o *Ops[int, int, int], m map[int]int) *Node[int, int, int] {
	es := make([]Entry[int, int], 0, len(m))
	for k, v := range m {
		es = append(es, Entry[int, int]{Key: k, Val: v})
	}
	slices.SortFunc(es, func(a, b Entry[int, int]) int { return a.Key - b.Key })
	return o.BuildSorted(es)
}

// modelOf returns t's entries as a map.
func modelOf(o *Ops[int, int, int], t *Node[int, int, int]) map[int]int {
	m := map[int]int{}
	o.ForEach(t, func(k, v int) bool {
		m[k] = v
		return true
	})
	return m
}
