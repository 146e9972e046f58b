package ctree

import (
	"testing"

	"repro/internal/xhash"
)

// diffEntry is one emitted element-level change, captured for comparison.
type diffEntry[V Value] struct {
	e    uint32
	kind DiffKind
	oldV V
	newV V
}

// collectDiff runs Diff and captures its emissions in order.
func collectDiff[V Value](t *testing.T, old, new Tree[V]) []diffEntry[V] {
	t.Helper()
	var out []diffEntry[V]
	if !Diff(old, new, func(e uint32, kind DiffKind, oldV, newV V) bool {
		out = append(out, diffEntry[V]{e, kind, oldV, newV})
		return true
	}) {
		t.Fatal("Diff stopped without emit returning false")
	}
	return out
}

// referenceDiff computes the expected diff by full decode-and-compare: both
// trees enumerated into maps, classified per element, emitted in ascending
// order — the oracle Diff's pruned walk must match exactly.
func referenceDiff[V Value](old, new Tree[V]) []diffEntry[V] {
	om := map[uint32]V{}
	nm := map[uint32]V{}
	old.ForEachKV(func(e uint32, v V) bool { om[e] = v; return true })
	new.ForEachKV(func(e uint32, v V) bool { nm[e] = v; return true })
	var ids []uint32
	for e := range om {
		ids = append(ids, e)
	}
	for e := range nm {
		if _, ok := om[e]; !ok {
			ids = append(ids, e)
		}
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j-1] > ids[j]; j-- {
			ids[j-1], ids[j] = ids[j], ids[j-1]
		}
	}
	var z V
	var out []diffEntry[V]
	for _, e := range ids {
		ov, inOld := om[e]
		nv, inNew := nm[e]
		switch {
		case inOld && !inNew:
			out = append(out, diffEntry[V]{e, DiffRemoved, ov, z})
		case !inOld && inNew:
			out = append(out, diffEntry[V]{e, DiffAdded, z, nv})
		case ov != nv:
			out = append(out, diffEntry[V]{e, DiffChanged, ov, nv})
		}
	}
	return out
}

func checkDiff[V Value](t *testing.T, old, new Tree[V], ctx string) {
	t.Helper()
	got := collectDiff(t, old, new)
	want := referenceDiff(old, new)
	if len(got) != len(want) {
		t.Fatalf("%s: diff emitted %d entries, reference %d", ctx, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: entry %d: got %+v (%v), want %+v (%v)",
				ctx, i, got[i], got[i].kind, want[i], want[i].kind)
		}
	}
}

func TestDiffBasic(t *testing.T) {
	for _, p := range testParams {
		base := Build(p, []uint32{1, 5, 9, 20, 300})
		ins := base.MultiInsert([]uint32{2, 21, 1000})
		del := base.MultiDelete([]uint32{5, 300})
		checkDiff(t, base, ins, "insert")
		checkDiff(t, ins, base, "insert reversed")
		checkDiff(t, base, del, "delete")
		checkDiff(t, base, base, "identical")
		var zero Set
		checkDiff(t, zero, base, "from zero")
		checkDiff(t, base, zero, "to zero")
		checkDiff(t, zero, zero, "zero vs zero")
	}
}

// TestDiffSharedIsEmpty pins the sharing shortcut: a version diffed against
// itself (or a rebuilt EqualRep twin) emits nothing.
func TestDiffSharedIsEmpty(t *testing.T) {
	for _, p := range testParams {
		tr := Build(p, sortedUnique(xhash.NewRNG(7), 500, 4000))
		if got := collectDiff(t, tr, tr); len(got) != 0 {
			t.Fatalf("params %+v: self-diff emitted %d entries", p, len(got))
		}
	}
}

// TestDiffFuzz replays random insert/delete schedules, diffing every
// adjacent and non-adjacent version pair against the decode-and-compare
// reference, across all parameter configurations.
func TestDiffFuzz(t *testing.T) {
	for _, p := range testParams {
		r := xhash.NewRNG(uint64(p.B)<<8 + 3)
		versions := []Set{Build(p, sortedUnique(r, 200, 2000))}
		for step := 0; step < 12; step++ {
			cur := versions[len(versions)-1]
			var next Set
			if r.Intn(3) == 0 {
				// Delete a random subset of the current elements.
				var sel []uint32
				cur.ForEach(func(e uint32) bool {
					if r.Intn(4) == 0 {
						sel = append(sel, e)
					}
					return true
				})
				next = cur.MultiDelete(sel)
			} else {
				next = cur.MultiInsert(sortedUnique(r, 30+r.Intn(100), 2500))
			}
			versions = append(versions, next)
		}
		for i := range versions {
			for j := range versions {
				if (i+j)%3 == 0 || j == i+1 {
					checkDiff(t, versions[i], versions[j], "fuzz pair")
				}
			}
		}
	}
}

// TestDiffWeightedChanged verifies payload-only updates surface as
// DiffChanged with both values, and that equal payloads that merely moved
// chunks are suppressed.
func TestDiffWeightedChanged(t *testing.T) {
	for _, p := range testParams {
		ids := []uint32{3, 7, 50, 51, 400}
		vals := []float32{1, 2, 3, 4, 5}
		base := BuildKV(p, ids, vals)
		// Re-weight one element, leave the rest identical.
		reweighted := base.Put(50, 99)
		got := collectDiff(t, base, reweighted)
		if len(got) != 1 || got[0].e != 50 || got[0].kind != DiffChanged ||
			got[0].oldV != 3 || got[0].newV != 99 {
			t.Fatalf("params %+v: reweight diff = %+v, want one changed(50, 3→99)", p, got)
		}
		// Put with the same value: representation may move, diff must not.
		same := base.Put(50, 3)
		checkDiff(t, base, same, "same-value put")
	}
}

// TestDiffFuzzWeighted fuzzes keyed payload updates against the reference.
func TestDiffFuzzWeighted(t *testing.T) {
	for _, p := range testParams {
		r := xhash.NewRNG(uint64(p.B) + 99)
		ids := sortedUnique(r, 300, 3000)
		vals := make([]float32, len(ids))
		for i := range vals {
			vals[i] = float32(r.Intn(50))
		}
		versions := []Tree[float32]{BuildKV(p, ids, vals)}
		for step := 0; step < 10; step++ {
			cur := versions[len(versions)-1]
			next := cur
			for k := 0; k < 20; k++ {
				e := uint32(r.Intn(3000))
				switch r.Intn(3) {
				case 0:
					next = next.Put(e, float32(r.Intn(50)))
				case 1:
					next = next.Delete(e)
				default:
					next = next.Insert(e)
				}
			}
			versions = append(versions, next)
		}
		for i := 0; i+1 < len(versions); i++ {
			checkDiff(t, versions[i], versions[i+1], "weighted fuzz")
			checkDiff(t, versions[0], versions[i+1], "weighted fuzz from base")
		}
	}
}

// TestDiffEarlyStop verifies emit returning false stops the walk and
// propagates false.
func TestDiffEarlyStop(t *testing.T) {
	for _, p := range testParams {
		base := Build(p, sortedUnique(xhash.NewRNG(5), 100, 1000))
		next := base.MultiInsert(sortedUnique(xhash.NewRNG(6), 50, 1200))
		total := len(collectDiff(t, base, next))
		if total < 2 {
			t.Fatalf("params %+v: fuzz setup produced %d diffs", p, total)
		}
		for _, stopAt := range []int{1, total / 2, total - 1} {
			n := 0
			if Diff(base, next, func(uint32, DiffKind, struct{}, struct{}) bool {
				n++
				return n < stopAt
			}) {
				t.Fatalf("params %+v: Diff reported completion despite early stop", p)
			}
			if n != stopAt {
				t.Fatalf("params %+v: emitted %d entries after stop at %d", p, n, stopAt)
			}
		}
	}
}

// TestDiffReusesStreams pins Diff's allocation count: the two element
// streams come from the tree class's pool, so a warmed-up Diff of a small
// change allocates nothing that scales with the elements it decodes.
func TestDiffReusesStreams(t *testing.T) {
	ids := make([]uint32, 2000)
	for i := range ids {
		ids[i] = uint32(3 * i)
	}
	old := Build(DefaultParams(), ids)
	cur := old.MultiInsert([]uint32{301, 3001}).MultiDelete([]uint32{600})
	n := 0
	emit := func(uint32, DiffKind, struct{}, struct{}) bool { n++; return true }
	allocs := testing.AllocsPerRun(100, func() { Diff(old, cur, emit) })
	if n == 0 {
		t.Fatal("Diff emitted nothing")
	}
	if allocs > 0 && !raceEnabled {
		t.Fatalf("Diff allocates %.0f objects per call, want 0", allocs)
	}
}
