package pftree

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/parallel"
	"repro/internal/xhash"
)

// The batch-driven descents (MultiInsert, MultiUpdate, MultiDelete) are
// checked against the compositions they replaced — Union / Difference with a
// tree built over the batch — which stay here as the reference.

func refMultiInsert(o *Ops[int, int, int], t *Node[int, int, int], es []Entry[int, int], combine func(old, new int) int) *Node[int, int, int] {
	return o.Union(t, o.BuildSorted(es), func(a, b int) int {
		if combine == nil {
			return b
		}
		return combine(a, b)
	})
}

func refMultiDelete(o *Ops[int, int, int], t *Node[int, int, int], keys []int) *Node[int, int, int] {
	es := make([]Entry[int, int], len(keys))
	for i, k := range keys {
		es[i] = Entry[int, int]{Key: k}
	}
	return o.Difference(t, o.BuildSorted(es))
}

func contents(o *Ops[int, int, int], t *Node[int, int, int]) []Entry[int, int] {
	out := make([]Entry[int, int], 0, t.Size())
	o.ForEach(t, func(k, v int) bool {
		out = append(out, Entry[int, int]{Key: k, Val: v})
		return true
	})
	return out
}

func sameContents(a, b []Entry[int, int]) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func addNodes(t *Node[int, int, int], set map[*Node[int, int, int]]bool) {
	if t != nil {
		set[t] = true
		addNodes(t.left, set)
		addNodes(t.right, set)
	}
}

// freshNodes counts the nodes of got that are not nodes of old.
func freshNodes(old, got *Node[int, int, int]) int {
	olds, gots := map[*Node[int, int, int]]bool{}, map[*Node[int, int, int]]bool{}
	addNodes(old, olds)
	addNodes(got, gots)
	n := 0
	for p := range gots {
		if !olds[p] {
			n++
		}
	}
	return n
}

// pathNodes counts the distinct nodes of t on the root-to-key search paths
// of the sorted keys: the nodes a batch over those keys has to copy.
func pathNodes(t *Node[int, int, int], keys []int) int {
	if t == nil || len(keys) == 0 {
		return 0
	}
	i := sort.SearchInts(keys, t.key)
	hi := keys[i:]
	if len(hi) > 0 && hi[0] == t.key {
		hi = hi[1:]
	}
	return 1 + pathNodes(t.left, keys[:i]) + pathNodes(t.right, hi)
}

// checkSameShape asserts got has old's shape and that every subtree of old
// that receives none of the sorted keys is, by pointer, the subtree at the
// same position of got.
func checkSameShape(t *testing.T, old, got *Node[int, int, int], keys []int) {
	t.Helper()
	if len(keys) == 0 {
		if old != got {
			t.Fatalf("subtree receiving no entry was reallocated (root key %v)", old.Key())
		}
		return
	}
	if old == nil || got == nil {
		if old != got {
			t.Fatalf("shape changed: old nil=%v, new nil=%v", old == nil, got == nil)
		}
		return
	}
	if old.key != got.key {
		t.Fatalf("shape changed: node key %d became %d", old.key, got.key)
	}
	i := sort.SearchInts(keys, old.key)
	hi := keys[i:]
	if len(hi) > 0 && hi[0] == old.key {
		hi = hi[1:]
	}
	checkSameShape(t, old.left, got.left, keys[:i])
	checkSameShape(t, old.right, got.right, hi)
}

func height(t *Node[int, int, int]) int {
	if t == nil {
		return 0
	}
	return 1 + max(height(t.left), height(t.right))
}

// checkBatch runs one batch (sorted, duplicate-free keys; values derived
// from the keys) through all three descents against their references.
func checkBatch(t *testing.T, base Tree[int, int, int], keys []int) {
	t.Helper()
	plain := *base.Ops()
	inv := plain
	inv.Aug.Sub = func(a, b int) int { return a - b }
	checkBatchOps(t, &plain, base.Root(), keys)
	checkBatchOps(t, &inv, base.Root(), keys)
}

// checkBatchOps is checkBatch under one operation table: the same asserts
// hold whether or not the augmentation declares its inverse.
func checkBatchOps(t *testing.T, o *Ops[int, int, int], root *Node[int, int, int], keys []int) {
	t.Helper()
	before := contents(o, root)
	es := make([]Entry[int, int], len(keys))
	present := 0
	for i, k := range keys {
		es[i] = Entry[int, int]{Key: k, Val: 7*k + 1}
		if _, ok := o.Find(root, k); ok {
			present++
		}
	}
	absent := len(keys) - present
	check := func(what string, got, want *Node[int, int, int]) {
		t.Helper()
		if !sameContents(contents(o, got), contents(o, want)) {
			t.Fatalf("%s: contents differ from the reference", what)
		}
		if err := Wrap(o, got).CheckInvariants(intEq); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if !sameContents(contents(o, root), before) {
			t.Fatalf("%s: input version changed", what)
		}
	}
	// The loose sharing bound: a constant per copied path node, plus a
	// rebalancing allowance per key that changed the tree's size.
	h := height(root) + 2
	paths := pathNodes(root, keys)

	add := func(old, new int) int { return old + new }
	for _, c := range []struct {
		name    string
		combine func(old, new int) int
	}{{"nil", nil}, {"add", add}} {
		got := o.MultiInsert(root, es, c.combine)
		check("MultiInsert/"+c.name, got, refMultiInsert(o, root, es, c.combine))
		fresh := freshNodes(root, got)
		if absent == 0 {
			checkSameShape(t, root, got, keys)
			if fresh != paths {
				t.Fatalf("MultiInsert/%s: all-present batch allocated %d nodes, want the %d path nodes", c.name, fresh, paths)
			}
		} else if limit := 3*paths + 3*absent*h; fresh > limit {
			t.Fatalf("MultiInsert/%s: allocated %d nodes, limit %d (paths %d, new keys %d)", c.name, fresh, limit, paths, absent)
		}
	}

	// MultiUpdate keeping every entry: shape-preserving whatever the batch.
	seen := make([]bool, len(keys))
	got := o.MultiUpdate(root, keys, func(i int, old int) (int, bool) {
		if seen[i] {
			t.Errorf("MultiUpdate: index %d visited twice", i)
		}
		seen[i] = true
		return old + keys[i], true
	})
	want := root
	for i, k := range keys {
		if v, ok := o.Find(root, k); ok {
			want = o.Insert(want, k, v+k, nil)
		} else if seen[i] {
			t.Fatalf("MultiUpdate: called for absent key %d", k)
		}
	}
	check("MultiUpdate/keep", got, want)
	checkSameShape(t, root, got, keys)
	if present == 0 && got != root {
		t.Fatal("MultiUpdate: no key present but the root was reallocated")
	}

	// MultiUpdate dropping odd keys, updating even ones.
	got = o.MultiUpdate(root, keys, func(i int, old int) (int, bool) { return -old, keys[i]%2 == 0 })
	want = root
	for _, k := range keys {
		if v, ok := o.Find(root, k); ok {
			if k%2 == 0 {
				want = o.Insert(want, k, -v, nil)
			} else {
				want = o.Delete(want, k)
			}
		}
	}
	check("MultiUpdate/mixed", got, want)

	got = o.MultiDelete(root, keys)
	check("MultiDelete", got, refMultiDelete(o, root, keys))
	if present == 0 && got != root {
		t.Fatal("MultiDelete: no key present but the root was reallocated")
	}
	if fresh, limit := freshNodes(root, got), 3*paths+3*present*h; fresh > limit {
		t.Fatalf("MultiDelete: allocated %d nodes, limit %d (paths %d, deleted %d)", fresh, limit, paths, present)
	}
}

// batchShapes names the adversarial batch shapes; batchKeys realises one
// over a tree whose keys are the multiples of 3 in [0, 3n).
var batchShapes = []string{"random", "all-present", "all-new", "interleaved", "below-min", "above-max", "straddle", "single-present", "single-new", "empty"}

func batchKeys(shape string, r *xhash.RNG, n, m int) []int {
	if n == 0 && (shape == "all-present" || shape == "single-present") {
		return nil
	}
	if shape == "all-present" {
		m = min(m, n)
	}
	set := map[int]bool{}
	for len(set) < m {
		switch shape {
		case "random":
			set[r.Intn(3*(n+m)+40)-20] = true
		case "all-present":
			set[3*r.Intn(n)] = true
		case "all-new":
			set[3*r.Intn(n+m)+1] = true
		case "interleaved":
			k := 3 * len(set)
			set[k+len(set)%2] = true // alternately present and new
		case "below-min":
			set[-1-r.Intn(4*m)] = true
		case "above-max":
			set[3*n+r.Intn(4*m)] = true
		case "straddle":
			if len(set)%2 == 0 {
				set[-1-r.Intn(4*m)] = true
			} else {
				set[3*n+r.Intn(4*m)] = true
			}
		case "single-present":
			return []int{3 * r.Intn(n)}
		case "single-new":
			return []int{3*r.Intn(n+1) + 2}
		default:
			return nil
		}
	}
	keys := make([]int, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// threesTree returns the tree over the multiples of 3 in [0, 3n), built by
// single insertions in a seed-dependent order so its shape varies.
func threesTree(seed uint64, n int) Tree[int, int, int] {
	r := xhash.NewRNG(seed)
	order := make([]int, n)
	for i := range order {
		order[i] = 3 * i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	tr := newIntTree()
	for _, k := range order {
		tr = tr.Insert(k, k+5)
	}
	return tr
}

func TestMultiBatchDifferential(t *testing.T) {
	for _, n := range []int{0, 1, 2, 37, 1000} {
		for _, m := range []int{1, 5, 64, 700} {
			for si, shape := range batchShapes {
				t.Run(fmt.Sprintf("n=%d/m=%d/%s", n, m, shape), func(t *testing.T) {
					seed := uint64(n*1000 + m*10 + si)
					checkBatch(t, threesTree(seed, n), batchKeys(shape, xhash.NewRNG(seed+1), n, m))
				})
			}
		}
	}
}

// TestMultiBatchForked forces the parallel step of both descents (batch
// halves of forkEntries or more, Procs > 1); run under -race it is the data
// race check for the forked branch.
func TestMultiBatchForked(t *testing.T) {
	defer func(p int) { parallel.Procs = p }(parallel.Procs)
	parallel.Procs = 4
	const n = 6000
	base := threesTree(99, n)
	for _, shape := range []string{"random", "all-present", "all-new", "interleaved"} {
		keys := batchKeys(shape, xhash.NewRNG(5), n, 8*forkEntries)
		if root := base.Root(); len(keys) < 4*forkEntries || root.left.Size() < 2*forkEntries || root.right.Size() < 2*forkEntries {
			t.Fatalf("%s: batch of %d keys over a %d/%d root cannot fork", shape, len(keys), root.left.Size(), root.right.Size())
		}
		checkBatch(t, base, keys)
	}
}

// FuzzMultiBatch drives checkBatch from fuzz-chosen sizes, shape and seed.
func FuzzMultiBatch(f *testing.F) {
	for i := range batchShapes {
		f.Add(uint64(i), uint16(200), uint16(40), uint8(i))
	}
	f.Add(uint64(9), uint16(0), uint16(12), uint8(0))
	f.Add(uint64(10), uint16(1), uint16(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, n, m uint16, shape uint8) {
		nn, mm := int(n%1500), int(m%600)
		checkBatch(t, threesTree(seed, nn), batchKeys(batchShapes[int(shape)%len(batchShapes)], xhash.NewRNG(seed^0x9e37), nn, mm))
	})
}
