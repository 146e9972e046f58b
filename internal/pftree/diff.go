package pftree

// DiffKind classifies one key's change between two versions of a tree.
type DiffKind uint8

const (
	// DiffAdded marks a key present only in the new tree.
	DiffAdded DiffKind = iota
	// DiffRemoved marks a key present only in the old tree.
	DiffRemoved
	// DiffChanged marks a key present in both trees with differing values.
	DiffChanged
)

// String names the kind for test failures and logs.
func (k DiffKind) String() string {
	switch k {
	case DiffAdded:
		return "added"
	case DiffRemoved:
		return "removed"
	case DiffChanged:
		return "changed"
	default:
		return "unknown"
	}
}

// Diff walks old and new in ascending key order and applies emit to every
// key whose membership or value differs, classifying it as added (new
// only), removed (old only) or changed (in both, but sameVal reports the
// values unequal). emit receives the zero V for the side a key is absent
// from and may return false to stop the walk; Diff reports whether it ran
// to completion.
//
// Structural sharing is what makes this cheap: a pair of pointer-equal
// subtrees is skipped in O(1), and functional updates reallocate only the
// search paths of the keys they touch (Insert one path, Join the spine it
// rebalances), so diffing a version against an updated successor costs
// O(d log(n/d + 1)) for d differing keys instead of O(n). The recursion
// aligns the two trees structurally while their shapes agree; where they
// diverge (a rotation or key edit) it follows the new tree's structure and
// narrows the old side by key bounds instead of physically splitting it, so
// the whole walk allocates nothing — clipping the old subtree to the
// current bound re-surfaces shared subtrees below a divergence, keeping the
// pointer short-circuit effective. sameVal is consulted once per surviving
// shared key; callers whose values are themselves persistent structures
// should pass their representation-equality check (pointer compare) to keep
// that O(1).
func (o *Ops[K, V, A]) Diff(old, new *Node[K, V, A], sameVal func(a, b V) bool, emit func(k K, kind DiffKind, oldV, newV V) bool) bool {
	return o.diffRange(old, new, nil, nil, sameVal, emit)
}

// clip descends old past subtrees wholly outside the open interval
// (lo, hi) — nil bounds are unbounded. The returned subtree's root key (if
// any) lies inside the interval; deeper keys may still fall outside and are
// filtered by the bounded recursion.
func (o *Ops[K, V, A]) clip(t *Node[K, V, A], lo, hi *K) *Node[K, V, A] {
	for t != nil {
		if lo != nil && o.Cmp(t.key, *lo) <= 0 {
			t = t.right
			continue
		}
		if hi != nil && o.Cmp(t.key, *hi) >= 0 {
			t = t.left
			continue
		}
		break
	}
	return t
}

// forEachBounded applies f to t's entries with keys inside (lo, hi), in
// ascending order, until f returns false.
func (o *Ops[K, V, A]) forEachBounded(t *Node[K, V, A], lo, hi *K, f func(K, V) bool) bool {
	t = o.clip(t, lo, hi)
	if t == nil {
		return true
	}
	// t.key is in range, so the left spine only needs the lower bound and
	// the right spine only the upper.
	if !o.forEachBounded(t.left, lo, nil, f) {
		return false
	}
	if !f(t.key, t.val) {
		return false
	}
	return o.forEachBounded(t.right, nil, hi, f)
}

// diffRange diffs old's entries inside (lo, hi) against new, all of whose
// keys the caller guarantees lie inside (lo, hi).
func (o *Ops[K, V, A]) diffRange(old, new *Node[K, V, A], lo, hi *K, sameVal func(a, b V) bool, emit func(k K, kind DiffKind, oldV, newV V) bool) bool {
	old = o.clip(old, lo, hi)
	// Pointer-equal subtrees hold identical entries; since new's are all
	// in-range, so are old's, and the pair contributes nothing.
	if old == new {
		return true
	}
	if old == nil {
		return o.ForEach(new, func(k K, v V) bool {
			var z V
			return emit(k, DiffAdded, z, v)
		})
	}
	if new == nil {
		return o.forEachBounded(old, lo, hi, func(k K, v V) bool {
			var z V
			return emit(k, DiffRemoved, v, z)
		})
	}
	if o.Cmp(old.key, new.key) == 0 {
		// Aligned roots: recurse on both sides. This is the hot path between
		// versions of the same lineage — batch updates keep untouched node
		// keys in place, so the walk re-aligns immediately below every edit.
		// Each side inherits one bound; the shared root key supplies the
		// other implicitly.
		if !o.diffRange(old.left, new.left, lo, nil, sameVal, emit) {
			return false
		}
		if !sameVal(old.val, new.val) && !emit(new.key, DiffChanged, old.val, new.val) {
			return false
		}
		return o.diffRange(old.right, new.right, nil, hi, sameVal, emit)
	}
	// Shapes diverge (rotation or a key edit): follow the new tree's
	// structure and thread the same old subtree down both sides, narrowed by
	// the new root's key. The clip at each entry re-aligns the old side, so
	// subtrees shared below the divergence still short-circuit.
	k := &new.key
	if !o.diffRange(old, new.left, lo, k, sameVal, emit) {
		return false
	}
	if v, found := o.Find(old, new.key); found {
		if !sameVal(v, new.val) && !emit(new.key, DiffChanged, v, new.val) {
			return false
		}
	} else {
		var z V
		if !emit(new.key, DiffAdded, z, new.val) {
			return false
		}
	}
	return o.diffRange(old, new.right, k, hi, sameVal, emit)
}
