package aspen

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/ctree"
	"repro/internal/parallel"
	"repro/internal/xhash"
)

// The reference batch cores: a map from vertex id to edge tree, updated
// vertex by vertex with the same edge-tree operations the descent applies
// (union for inserts, difference for deletes); destination endpoints and
// emptied vertices are found with plain lookups. It shares no code with the
// paged index. Test-only.

type refIndex[V ctree.Value] map[uint32]ctree.Tree[V]

func refInsertCore[V ctree.Value](p ctree.Params, ref refIndex[V], packed []uint64, vals []V, merge func(old, new V) V) refIndex[V] {
	next := maps.Clone(ref)
	srcs, dsts, vruns, _ := groupBySourceKV(packed, vals)
	proto := ctree.NewKV[V](p)
	for i, s := range srcs {
		var vr []V
		if vruns != nil {
			vr = vruns[i]
		}
		ins := proto.BuildLike(dsts[i], vr)
		if old, ok := next[s]; ok {
			ins = old.UnionWith(ins, merge)
		}
		next[s] = ins
	}
	for _, k := range packed {
		if _, ok := next[uint32(k)]; !ok {
			next[uint32(k)] = proto
		}
	}
	return next
}

func refDeleteCore[V ctree.Value](p ctree.Params, ref refIndex[V], packed []uint64, dropEmpty bool) refIndex[V] {
	next := maps.Clone(ref)
	srcs, dsts, _, _ := groupBySourceKV[struct{}](packed, nil)
	proto := ctree.NewKV[V](p)
	for i, s := range srcs {
		if old, ok := next[s]; ok {
			if et := old.Difference(proto.BuildLike(dsts[i], nil)); dropEmpty && et.Empty() {
				delete(next, s)
			} else {
				next[s] = et
			}
		}
	}
	return next
}

// ids returns the reference's vertex ids in order.
func (r refIndex[V]) ids() []uint32 { return slices.Sorted(maps.Keys(r)) }

// batchStep is one update of a differential schedule.
type batchStep[V ctree.Value] struct {
	name   string
	del    bool
	gc     bool // with del: drop emptied vertices
	packed []uint64
	vals   []V
	merge  func(old, new V) V
}

// vertexImage is one vertex with its adjacency and payloads, for equality
// checks that do not depend on tree shape.
type vertexImage[V ctree.Value] struct {
	id   uint32
	nbrs []uint32
	vals []V
}

func imageOf[V ctree.Value](id uint32, et ctree.Tree[V]) vertexImage[V] {
	im := vertexImage[V]{id: id}
	et.ForEachKV(func(e uint32, v V) bool {
		im.nbrs = append(im.nbrs, e)
		im.vals = append(im.vals, v)
		return true
	})
	return im
}

func (a vertexImage[V]) equal(b vertexImage[V]) bool {
	return a.id == b.id && slices.Equal(a.nbrs, b.nbrs) && slices.Equal(a.vals, b.vals)
}

func imagesOf[V ctree.Value](cls ctree.Class[V], vt *tnode[V]) []vertexImage[V] {
	var out []vertexImage[V]
	forEachVertex(cls, vt, func(u uint32, et ctree.Tree[V]) bool {
		out = append(out, imageOf(u, et))
		return true
	})
	return out
}

func (r refIndex[V]) images() []vertexImage[V] {
	var out []vertexImage[V]
	for _, u := range r.ids() {
		out = append(out, imageOf(u, r[u]))
	}
	return out
}

// deltaImage is one DiffVersions record, shape-independent.
type deltaImage[V ctree.Value] struct {
	kind     DiffKind
	old, new vertexImage[V]
}

func deltasOf[V ctree.Value](cls ctree.Class[V], old, cur *tnode[V]) []deltaImage[V] {
	var out []deltaImage[V]
	diffVersionsCore(cls, cls, old, cur, func(d VertexDelta[V]) bool {
		out = append(out, deltaImage[V]{kind: d.Kind, old: imageOf(d.ID, d.Old), new: imageOf(d.ID, d.New)})
		return true
	})
	return out
}

// refDeltas is what DiffVersions must emit between two reference versions:
// per id, in order, whether it came, went, or kept its slot with an edge tree
// of another representation.
func refDeltas[V ctree.Value](old, cur refIndex[V]) []deltaImage[V] {
	var out []deltaImage[V]
	both := maps.Clone(old)
	maps.Copy(both, cur)
	for _, u := range both.ids() {
		ot, was := old[u]
		nt, in := cur[u]
		d := deltaImage[V]{old: imageOf(u, ot), new: imageOf(u, nt)}
		switch {
		case was && in && ot.EqualRep(nt):
			continue
		case was && in:
			d.kind = DiffChanged
		case in:
			d.kind = DiffAdded
		default:
			d.kind = DiffRemoved
		}
		out = append(out, d)
	}
	return out
}

// runBatchDifferential applies the schedule through the production cores
// and through the reference cores, each on its own lineage, and requires
// equal graphs, equal O(1) aggregates and identical version diffs at every
// step, with the vertex index's invariants intact.
func runBatchDifferential[V ctree.Value](t *testing.T, p ctree.Params, steps []batchStep[V]) {
	t.Helper()
	var got *tnode[V]
	cls := ctree.ClassOf[V](p)
	ref := refIndex[V]{}
	for i, s := range steps {
		ctx := fmt.Sprintf("step %d (%s)", i, s.name)
		prevGot, prevRef := got, ref
		if s.del {
			got = applyCore(cls, got, sortedBatch[V]{packed: s.packed, del: true}, nil, s.gc)
			ref = refDeleteCore(p, ref, s.packed, s.gc)
		} else {
			got = applyCore(cls, got, sortedBatch[V]{packed: s.packed, vals: s.vals}, s.merge, false)
			ref = refInsertCore(p, ref, s.packed, s.vals, s.merge)
		}
		if err := checkIndex(cls, got); err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		var refEdges uint64
		for _, et := range ref {
			refEdges += et.Size()
		}
		if got.numVerts() != uint64(len(ref)) || got.numEdges() != refEdges {
			t.Fatalf("%s: %d vertices / %d edges, reference has %d / %d", ctx, got.numVerts(), got.numEdges(), len(ref), refEdges)
		}
		if !slices.EqualFunc(imagesOf(cls, got), ref.images(), vertexImage[V].equal) {
			t.Fatalf("%s: graph differs from the reference", ctx)
		}
		gd, rd := deltasOf(cls, prevGot, got), refDeltas(prevRef, ref)
		if !slices.EqualFunc(gd, rd, func(a, b deltaImage[V]) bool {
			return a.kind == b.kind && a.old.equal(b.old) && a.new.equal(b.new)
		}) {
			t.Fatalf("%s: DiffVersions emitted %d deltas, reference lineage %d (or contents differ)", ctx, len(gd), len(rd))
		}
	}
}

// batchSchedule builds an insert/delete schedule over n vertex ids:
// symmetrised and directed inserts (the latter creating destination-only
// vertices), deletes of present and absent edges and sources, and a
// DeleteEdgesGC shrink of a whole id range followed by its regrowth.
func batchSchedule(seed uint64, n int) []batchStep[struct{}] {
	r := xhash.NewRNG(seed)
	var steps []batchStep[struct{}]
	add := func(name string, del, gc bool, edges []Edge) {
		steps = append(steps, batchStep[struct{}]{name: name, del: del, gc: gc, packed: sortEdgeBatch(edges)})
	}
	base := MakeUndirected(randomEdges(r, 6*n, n))
	add("bulk load", false, false, base)
	for round := 0; round < 4; round++ {
		ins := MakeUndirected(randomEdges(r, n/2, n+n/4)) // some new vertices
		add("symmetric insert", false, false, ins)
		add("directed insert", false, false, randomEdges(r, n/3, 2*n))
		add("delete mixed", true, false, append(MakeUndirected(randomEdges(r, n, n)), ins[:len(ins)/2]...))
		add("delete absent sources", true, false, []Edge{{Src: uint32(5 * n), Dst: 1}, {Src: uint32(6 * n), Dst: 2}})
		add("gc delete", true, true, append(MakeUndirected(randomEdges(r, n, n)), ins[len(ins)/2:]...))
	}
	// Shrink: delete every edge touching ids below n/4 in both directions
	// so those vertices empty out and the GC drops them; then regrow.
	var low []Edge
	for _, e := range base {
		if int(e.Src) < n/4 || int(e.Dst) < n/4 {
			low = append(low, e)
		}
	}
	add("gc shrink", true, true, low)
	add("regrow", false, false, low)
	add("single edge", false, false, []Edge{{Src: 3, Dst: 4}})
	add("single delete", true, true, []Edge{{Src: 3, Dst: 4}})
	return steps
}

func TestBatchCoresMatchReference(t *testing.T) {
	for _, p := range []ctree.Params{params(), ctree.DefaultParams(), ctree.PlainParams()} {
		for _, n := range []int{40, 600} {
			t.Run(fmt.Sprintf("B=%d/plain=%v/n=%d", p.B, p.Plain, n), func(t *testing.T) {
				runBatchDifferential(t, p, batchSchedule(uint64(n)+uint64(p.B), n))
			})
		}
	}
}

func TestBatchCoresMatchReferenceWeighted(t *testing.T) {
	const n = 300
	r := xhash.NewRNG(17)
	weighted := func(k int) ([]uint64, []float32) {
		es := make([]WeightedEdge, 0, 2*k)
		for _, e := range randomEdges(r, k, n) {
			w := float32(r.Intn(1000)) / 8
			es = append(es, WeightedEdge{Src: e.Src, Dst: e.Dst, Val: w}, WeightedEdge{Src: e.Dst, Dst: e.Src, Val: w})
		}
		return sortWeightedEdgeBatch(es)
	}
	sum := func(old, new float32) float32 { return old + new }
	var steps []batchStep[float32]
	for round := 0; round < 5; round++ {
		packed, ws := weighted(4 * n)
		steps = append(steps, batchStep[float32]{name: "insert", packed: packed, vals: ws})
		packed, ws = weighted(n)
		steps = append(steps, batchStep[float32]{name: "re-weight (sum)", packed: packed, vals: ws, merge: sum})
		packed, _ = weighted(2 * n)
		steps = append(steps, batchStep[float32]{name: "delete", del: true, gc: round%2 == 1, packed: packed})
	}
	runBatchDifferential(t, params(), steps)
}

// TestBatchCoresForkedMatchReference drives batches wide enough to split
// into pieces, with Procs raised so they do on any box; under -race this
// covers the aspen callbacks running concurrently.
func TestBatchCoresForkedMatchReference(t *testing.T) {
	defer func(p int) { parallel.Procs = p }(parallel.Procs)
	parallel.Procs = 4
	runBatchDifferential(t, ctree.DefaultParams(), batchSchedule(5, 4000))
}
