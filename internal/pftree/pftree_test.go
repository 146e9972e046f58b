package pftree

import (
	"sort"
	"testing"

	"repro/internal/xhash"
)

// sumAug counts entries and sums values, exercising augmentation.
var sumAug = Augment[int, int, int]{
	Zero:      0,
	FromEntry: func(_, v int) int { return v },
	Combine:   func(a, b int) int { return a + b },
}

func cmpInt(a, b int) int { return a - b }

func newIntTree() Tree[int, int, int] { return New(cmpInt, sumAug) }

func intEq(a, b int) bool { return a == b }

// model-based checking against a Go map.
func treeEqualsModel(t *testing.T, tr Tree[int, int, int], model map[int]int) {
	t.Helper()
	if tr.Size() != len(model) {
		t.Fatalf("size = %d, want %d", tr.Size(), len(model))
	}
	wantSum := 0
	for k, v := range model {
		got, ok := tr.Find(k)
		if !ok || got != v {
			t.Fatalf("Find(%d) = (%d,%v), want (%d,true)", k, got, ok, v)
		}
		wantSum += v
	}
	if tr.AugVal() != wantSum {
		t.Fatalf("aug = %d, want %d", tr.AugVal(), wantSum)
	}
	prev := -1 << 62
	ordered := true
	tr.ForEach(func(k, _ int) bool {
		if k <= prev {
			ordered = false
		}
		prev = k
		return true
	})
	if !ordered {
		t.Fatal("keys not in order")
	}
	if err := tr.CheckInvariants(intEq); err != nil {
		t.Fatal(err)
	}
}

func TestInsertFindDeleteModel(t *testing.T) {
	r := xhash.NewRNG(1)
	tr := newIntTree()
	model := map[int]int{}
	for step := 0; step < 4000; step++ {
		k := r.Intn(500)
		switch r.Intn(3) {
		case 0, 1:
			v := r.Intn(100)
			tr = tr.Insert(k, v)
			model[k] = v
		case 2:
			tr = tr.Delete(k)
			delete(model, k)
		}
	}
	treeEqualsModel(t, tr, model)
}

func TestInsertWithCombine(t *testing.T) {
	tr := newIntTree()
	add := func(old, new int) int { return old + new }
	tr = tr.InsertWith(5, 10, add)
	tr = tr.InsertWith(5, 7, add)
	if v, _ := tr.Find(5); v != 17 {
		t.Fatalf("combined value = %d, want 17", v)
	}
}

func TestPersistence(t *testing.T) {
	// Old versions must be unaffected by later updates.
	tr := newIntTree()
	versions := []Tree[int, int, int]{tr}
	for i := 0; i < 200; i++ {
		tr = tr.Insert(i, i*2)
		versions = append(versions, tr)
	}
	for i, v := range versions {
		if v.Size() != i {
			t.Fatalf("version %d has size %d", i, v.Size())
		}
		if i > 0 {
			if got, ok := v.Find(i - 1); !ok || got != (i-1)*2 {
				t.Fatalf("version %d lost key %d", i, i-1)
			}
		}
		if _, ok := v.Find(i); ok {
			t.Fatalf("version %d sees key from the future", i)
		}
	}
}

func TestBuildSorted(t *testing.T) {
	for _, n := range []int{0, 1, 2, 100, 10_000} {
		entries := make([]Entry[int, int], n)
		for i := range entries {
			entries[i] = Entry[int, int]{Key: i, Val: i}
		}
		tr := newIntTree().BuildSorted(entries)
		if tr.Size() != n {
			t.Fatalf("n=%d: size %d", n, tr.Size())
		}
		if err := tr.CheckInvariants(intEq); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		keys := tr.Keys()
		for i, k := range keys {
			if k != i {
				t.Fatalf("n=%d: keys[%d] = %d", n, i, k)
			}
		}
	}
}

func randomTree(seed uint64, maxKey, n int) (Tree[int, int, int], map[int]int) {
	r := xhash.NewRNG(seed)
	tr := newIntTree()
	model := map[int]int{}
	for i := 0; i < n; i++ {
		k := r.Intn(maxKey)
		v := r.Intn(1000)
		tr = tr.Insert(k, v)
		model[k] = v
	}
	return tr, model
}

func TestMultiInsertDelete(t *testing.T) {
	tr, model := randomTree(77, 1000, 500)
	var batch []Entry[int, int]
	for i := 0; i < 300; i += 3 {
		batch = append(batch, Entry[int, int]{Key: i, Val: -i})
	}
	tr2 := tr.MultiInsert(batch, nil)
	for _, e := range batch {
		model[e.Key] = e.Val
	}
	treeEqualsModel(t, tr2, model)

	var dels []int
	for i := 0; i < 1000; i += 7 {
		dels = append(dels, i)
	}
	tr3 := tr2.MultiDelete(dels)
	for _, k := range dels {
		delete(model, k)
	}
	treeEqualsModel(t, tr3, model)
}

func TestFindLE(t *testing.T) {
	tr := newIntTree()
	for _, k := range []int{10, 20, 30, 40} {
		tr = tr.Insert(k, k)
	}
	o := tr.Ops()
	cases := []struct {
		q      int
		want   int
		wantOK bool
	}{
		{5, 0, false}, {10, 10, true}, {15, 10, true},
		{40, 40, true}, {100, 40, true},
	}
	for _, c := range cases {
		n, ok := o.FindLE(tr.Root(), c.q)
		if ok != c.wantOK {
			t.Fatalf("FindLE(%d) ok = %v", c.q, ok)
		}
		if ok && n.Key() != c.want {
			t.Fatalf("FindLE(%d) = %d, want %d", c.q, n.Key(), c.want)
		}
	}
}

func TestForEachParCoversAll(t *testing.T) {
	tr := newIntTree()
	const n = 10_000
	for i := 0; i < n; i++ {
		tr = tr.Insert(i, 1)
	}
	counts := make([]int32, n)
	var mu sort.IntSlice // placeholder to avoid import cycle; use channel-free atomic
	_ = mu
	done := make(chan int, 64)
	go func() {
		tr.ForEachPar(func(k, _ int) { done <- k })
		close(done)
	}()
	for k := range done {
		counts[k]++
	}
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("key %d visited %d times", i, c)
		}
	}
}

func TestJoin2ViaDifference(t *testing.T) {
	// Difference that removes a middle run exercises Join2/SplitLast.
	tr := newIntTree()
	for i := 0; i < 1000; i++ {
		tr = tr.Insert(i, i)
	}
	var mid []int
	for i := 300; i < 700; i++ {
		mid = append(mid, i)
	}
	got := tr.MultiDelete(mid)
	if got.Size() != 600 {
		t.Fatalf("size = %d, want 600", got.Size())
	}
	if err := got.CheckInvariants(intEq); err != nil {
		t.Fatal(err)
	}
}

func TestLargeSequentialInsertBalance(t *testing.T) {
	// Sorted insertion is the classic worst case for unbalanced trees.
	tr := newIntTree()
	const n = 50_000
	for i := 0; i < n; i++ {
		tr = tr.Insert(i, i)
	}
	if err := tr.CheckInvariants(intEq); err != nil {
		t.Fatal(err)
	}
	// Height must be logarithmic: walk to the deepest leaf.
	depth := 0
	n2 := tr.Root()
	for n2 != nil {
		depth++
		if n2.Left().Size() > n2.Right().Size() {
			n2 = n2.Left()
		} else {
			n2 = n2.Right()
		}
	}
	if depth > 40 {
		t.Fatalf("tree depth %d too large for n=%d", depth, n)
	}
}

func TestEmptyTreeOperations(t *testing.T) {
	tr := newIntTree()
	if tr.Size() != 0 || tr.AugVal() != 0 {
		t.Fatal("empty tree wrong size/aug")
	}
	if _, ok := tr.Find(1); ok {
		t.Fatal("found in empty tree")
	}
	tr2 := tr.Delete(1)
	if tr2.Size() != 0 {
		t.Fatal("delete on empty changed size")
	}
}
