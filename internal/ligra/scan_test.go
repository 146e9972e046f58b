package ligra

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/parallel"
)

// warmStub is a flatStub with the Warmer capability; it records every Warm
// call instead of loading anything.
type warmStub struct {
	*flatStub
	mu    sync.Mutex
	calls [][]uint32
}

func (w *warmStub) Warm(ids []uint32) uint32 {
	w.mu.Lock()
	w.calls = append(w.calls, slices.Clone(ids))
	w.mu.Unlock()
	return 0
}

// warmed returns the ids of all Warm calls in call order, after checking no
// call was wider than a scan block.
func (w *warmStub) warmed(t *testing.T) []uint32 {
	t.Helper()
	var all []uint32
	for _, ids := range w.calls {
		if len(ids) > scanWidth {
			t.Fatalf("Warm called with %d ids, more than a scan block of %d", len(ids), scanWidth)
		}
		all = append(all, ids...)
	}
	return all
}

// TestScanRange: with or without the capability Range scans exactly the
// vertices c keeps, in increasing order; with it, the vertices warmed are
// the vertices scanned — never the ones c drops — a block at a time.
func TestScanRange(t *testing.T) {
	s := newFlatStub(star(100))
	keep := func(v uint32) bool { return v%5 != 2 }
	for _, r := range [][2]int{{0, 100}, {3, 3}, {7, 8}, {10, 10 + scanWidth}, {1, 2 + 3*scanWidth}} {
		for _, c := range []func(uint32) bool{nil, keep} {
			var want []uint32
			for i := r[0]; i < r[1]; i++ {
				if c == nil || c(uint32(i)) {
					want = append(want, uint32(i))
				}
			}
			w := &warmStub{flatStub: s}
			for _, g := range []Graph{s, baseOnly{s}, w} {
				sc := NewScan(g)
				var got []uint32
				sc.Range(r[0], r[1], c, func(v uint32) { got = append(got, v) })
				if !slices.Equal(got, want) {
					t.Fatalf("%T, range %v: scanned %v, want %v", g, r, got, want)
				}
			}
			if got := w.warmed(t); !slices.Equal(got, want) {
				t.Fatalf("range %v: warmed %v, scanned %v", r, got, want)
			}
		}
	}
}

// TestScanRangeDropsIsolated: the degree filter of the dense direction drops
// vertices without neighbors before c sees them.
func TestScanRangeDropsIsolated(t *testing.T) {
	adj := star(40)
	adj = append(adj, nil, nil, []uint32{0}, nil) // 40, 41 and 43 have no neighbors
	for _, g := range []Graph{newFlatStub(adj), &warmStub{flatStub: newFlatStub(adj)}} {
		sc := NewScan(g)
		var got []uint32
		sc.scanRange(36, len(adj), flatDegrees(g), func(v uint32) bool {
			if v == 40 || v == 41 || v == 43 {
				t.Fatalf("%T: condition asked about isolated vertex %d", g, v)
			}
			return true
		}, func(v uint32) { got = append(got, v) })
		if want := []uint32{36, 37, 38, 39, 42}; !slices.Equal(got, want) {
			t.Fatalf("%T: scanned %v, want %v", g, got, want)
		}
	}
}

// TestScanList: List scans the ids as given and warms each of them exactly
// once, in order, no later than its scan.
func TestScanList(t *testing.T) {
	s := newFlatStub(star(200))
	for _, n := range []int{0, 1, scanWidth - 1, scanWidth, scanWidth + 1, 5*scanWidth + 3} {
		ids := make([]uint32, n)
		for i := range ids {
			ids[i] = uint32((i * 37) % 200)
		}
		w := &warmStub{flatStub: s}
		for _, g := range []Graph{s, w} {
			sc := NewScan(g)
			var got []uint32
			sc.List(ids, func(v uint32) {
				if g == Graph(w) && len(w.warmed(t)) <= len(got) {
					t.Fatalf("vertex %d scanned before it was warmed", v)
				}
				got = append(got, v)
			})
			if !slices.Equal(got, ids) {
				t.Fatalf("%T, %d ids: scanned %v", g, n, got)
			}
		}
		if got := w.warmed(t); !slices.Equal(got, ids) {
			t.Fatalf("%d ids: warmed %v, want each id once in order", n, got)
		}
	}
}

// TestEdgeMapWarmMatchesPlain: the capability changes the order of memory
// accesses, never the result, in either direction.
func TestEdgeMapWarmMatchesPlain(t *testing.T) {
	s := newFlatStub(star(300))
	frontier := FromSparse(s.Order(), []uint32{0, 5, 17, 120})
	cond := func(v uint32) bool { return v%3 != 1 }
	old := parallel.Procs
	defer func() { parallel.Procs = old }()
	for _, procs := range []int{1, 4} {
		parallel.Procs = procs
		for _, opts := range []EdgeMapOpts{{}, {NoDense: true}, {DenseThresholdDiv: 1 << 40}} {
			run := func(g Graph) []uint32 {
				claimed := make([]uint32, s.Order())
				out := EdgeMap(g, frontier, func(_, dst uint32) bool { return casOnce(claimed, dst) }, cond, opts).Sparse()
				slices.Sort(out)
				return out
			}
			w := &warmStub{flatStub: s}
			if a, b := run(w), run(s); !slices.Equal(a, b) {
				t.Fatalf("procs=%d opts=%+v: with Warm %v, without %v", procs, opts, a, b)
			}
			if len(w.calls) == 0 {
				t.Fatalf("procs=%d opts=%+v: the capability was never used", procs, opts)
			}
		}
	}
}

func casOnce(claimed []uint32, v uint32) bool {
	return atomic.CompareAndSwapUint32(&claimed[v], 0, 1)
}

// TestEdgeMapDenseChecksConditionAtScan: the dense direction asks C about a
// whole scan block before scanning its first vertex, but that answer only
// picks what to warm — C is asked again directly before v's scan, as it
// always was. A condition that reads what F did to other vertices (here: a
// budget of claims) must therefore see every earlier claim: exactly budget
// vertices are claimed, where acting on the early answer would claim up to a
// block more.
func TestEdgeMapDenseChecksConditionAtScan(t *testing.T) {
	const n, budget = 10 * scanWidth, 3
	adj := make([][]uint32, n)
	for i := 1; i < n; i++ {
		adj[0] = append(adj[0], uint32(i))
		adj[i] = []uint32{0}
	}
	old := parallel.Procs
	parallel.Procs = 1 // one block at a time: the claim order is the id order
	defer func() { parallel.Procs = old }()
	for _, g := range []Graph{newFlatStub(adj), &warmStub{flatStub: newFlatStub(adj)}} {
		left := budget
		out := EdgeMap(g, FromVertex(n, 0),
			func(_, _ uint32) bool { left--; return true },
			func(v uint32) bool { return v != 0 && left > 0 },
			EdgeMapOpts{DenseThresholdDiv: 1 << 40})
		if !out.IsDense() {
			t.Fatalf("%T: expected the dense direction", g)
		}
		if got := out.Sparse(); !slices.Equal(got, []uint32{1, 2, 3}) {
			t.Fatalf("%T: claimed %v, want exactly the first %d candidates", g, got, budget)
		}
	}
}
