package aspen

import (
	"reflect"
	"sync"

	"repro/internal/ctree"
	"repro/internal/parallel"
	"repro/internal/pftree"
)

// This file is the batch-update engine behind GraphOf[V] — Graph (V =
// struct{}), WeightedGraph (V = float32) or any other fixed-width payload:
// one radix-sorted, fused vertex-tree pass per batch. It is the
// paper's batch-update algorithm (§5) — sort, group, build per-source edge
// C-trees, then MultiInsert into the vertex-tree with a combine function
// that unions edge trees — extended so payloads (edge weights, and any
// future fixed-width property) ride the same compressed path. The
// vertex-tree pass is pftree's batch-driven descent: the sorted sources
// steer it, and only the nodes on the paths to them are reallocated.

// vnode is a vertex-tree node: key = vertex id, value = edge C-tree,
// augmented with the total number of edges in the subtree so NumEdges is
// O(1) (paper §5, "we augment the vertex-tree to store the number of edges
// contained in its subtrees").
type vnode[V ctree.Value] = pftree.Node[uint32, ctree.Tree[V], uint64]

// vopsT is the vertex-tree operation table for payload type V.
type vopsT[V ctree.Value] = pftree.Ops[uint32, ctree.Tree[V], uint64]

func cmpU32(a, b uint32) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func newVops[V ctree.Value]() *vopsT[V] {
	return &vopsT[V]{
		Cmp: cmpU32,
		Aug: pftree.Augment[uint32, ctree.Tree[V], uint64]{
			Zero:      0,
			FromEntry: func(_ uint32, et ctree.Tree[V]) uint64 { return et.Size() },
			Combine:   func(a, b uint64) uint64 { return a + b },
			// Edge counts subtract: copying a path node reads neither its
			// untouched sibling nor an unchanged entry's edge tree.
			Sub: func(a, b uint64) uint64 { return a - b },
		},
	}
}

var vopsCache sync.Map // reflect.Type of V -> *vopsT[V]

// vopsFor returns the interned vertex-tree table for payload type V. Graphs
// resolve it once at construction and carry it, so accessors never look it
// up.
func vopsFor[V ctree.Value]() *vopsT[V] {
	key := reflect.TypeFor[V]()
	if o, ok := vopsCache.Load(key); ok {
		return o.(*vopsT[V])
	}
	o, _ := vopsCache.LoadOrStore(key, newVops[V]())
	return o.(*vopsT[V])
}

// groupBySourceKV splits the packed sorted batch into per-source runs of
// destination ids and (when vals is non-nil) the aligned payload runs.
// Every run is a subslice of one shared backing array, all (the low words of
// packed, materialized once in parallel) — no per-run copies.
func groupBySourceKV[V ctree.Value](packed []uint64, vals []V) (srcs []uint32, dsts [][]uint32, vruns [][]V, all []uint32) {
	if len(packed) == 0 {
		return nil, nil, nil, nil
	}
	all = make([]uint32, len(packed))
	parallel.For(len(packed), func(i int) { all[i] = uint32(packed[i]) })
	starts := parallel.PackIndices(len(packed), func(i int) bool {
		return i == 0 || packed[i]>>32 != packed[i-1]>>32
	})
	srcs = make([]uint32, len(starts))
	dsts = make([][]uint32, len(starts))
	if vals != nil {
		vruns = make([][]V, len(starts))
	}
	parallel.ForGrain(len(starts), 64, func(j int) {
		lo := int(starts[j])
		hi := len(packed)
		if j+1 < len(starts) {
			hi = int(starts[j+1])
		}
		srcs[j] = uint32(packed[lo] >> 32)
		dsts[j] = all[lo:hi]
		if vals != nil {
			vruns[j] = vals[lo:hi]
		}
	})
	return srcs, dsts, vruns, all
}

// groupBySource is the id-only view of groupBySourceKV.
func groupBySource(packed []uint64) (srcs []uint32, dsts [][]uint32) {
	srcs, dsts, _, _ = groupBySourceKV[struct{}](packed, nil)
	return srcs, dsts
}

// insertEdgesCore inserts a sorted, deduplicated packed batch (with aligned
// payloads, nil for zero payloads) into the vertex-tree. Vertices appearing
// as sources or destinations are created as needed; destination-only
// endpoints ride along in the same MultiInsert as entries with empty edge
// trees, so the whole batch is one batch-driven descent of the vertex-tree
// that copies only the paths to the batch's vertices. Payload collisions
// with existing edges resolve to merge(oldVal, newVal), or the batch value
// when merge is nil (last-writer-wins). O(k log n) work, polylog depth.
func insertEdgesCore[V ctree.Value](ops *vopsT[V], p ctree.Params, vt *vnode[V], packed []uint64, vals []V, merge func(old, new V) V) *vnode[V] {
	srcs, dsts, vruns, all := groupBySourceKV(packed, vals)
	// One prototype tree interns the per-V operation table; every edge tree
	// of the batch is built from it instead of re-resolving the table.
	proto := ctree.NewKV[V](p)
	entries := make([]pftree.Entry[uint32, ctree.Tree[V]], len(srcs))
	parallel.ForGrain(len(srcs), 16, func(k int) {
		var vr []V
		if vruns != nil {
			vr = vruns[k]
		}
		entries[k] = pftree.Entry[uint32, ctree.Tree[V]]{Key: srcs[k], Val: proto.BuildLike(dsts[k], vr)}
	})
	// The edge trees are encoded, so the runs' backing array is free to be
	// reordered by the endpoint probe.
	if extra := missingEndpoints(ops, vt, srcs, all); len(extra) > 0 {
		entries = mergeEndpoints(entries, extra, proto)
	}
	return ops.MultiInsert(vt, entries, func(old, new ctree.Tree[V]) ctree.Tree[V] {
		return old.UnionWith(new, merge)
	})
}

// missingEndpoints returns, sorted, the destination ids of the batch that
// are neither batch sources nor vertices of vt — the endpoints the batch must
// create so traversals can land on them. It sorts dstIDs in place. A
// destination that is a batch source is created by its source entry and
// costs no lookup; on a symmetrised batch that is every destination.
func missingEndpoints[V ctree.Value](ops *vopsT[V], vt *vnode[V], srcs, dstIDs []uint32) []uint32 {
	parallel.RadixSortUint32(dstIDs)
	dstIDs = parallel.DedupSortedUint32(dstIDs)
	w, j := 0, 0
	for _, d := range dstIDs {
		for j < len(srcs) && srcs[j] < d {
			j++
		}
		if j == len(srcs) || srcs[j] != d {
			dstIDs[w] = d
			w++
		}
	}
	return parallel.FilterUint32(dstIDs[:w], func(d uint32) bool {
		_, ok := ops.Find(vt, d)
		return !ok
	})
}

// mergeEndpoints merges extra (sorted ids, disjoint from the entry keys)
// into the sorted entries as vertices with empty edge trees.
func mergeEndpoints[V ctree.Value](entries []pftree.Entry[uint32, ctree.Tree[V]], extra []uint32, empty ctree.Tree[V]) []pftree.Entry[uint32, ctree.Tree[V]] {
	out := make([]pftree.Entry[uint32, ctree.Tree[V]], 0, len(entries)+len(extra))
	i := 0
	for _, d := range extra {
		for i < len(entries) && entries[i].Key < d {
			out = append(out, entries[i])
			i++
		}
		out = append(out, pftree.Entry[uint32, ctree.Tree[V]]{Key: d, Val: empty})
	}
	return append(out, entries[i:]...)
}

// deleteEdgesCore removes a sorted, deduplicated packed batch from the
// vertex-tree; absent edges and absent sources are ignored. The descent
// calls back only for sources it finds, so each deletion tree is built where
// it is subtracted. With dropEmpty set, a batch source whose edge tree ends
// up empty is dropped from the vertex-tree in the same pass (the opt-in
// isolated-vertex GC; meaningful on symmetric graphs, where deletes arrive
// in both directions).
func deleteEdgesCore[V ctree.Value](ops *vopsT[V], p ctree.Params, vt *vnode[V], packed []uint64, dropEmpty bool) *vnode[V] {
	srcs, dsts, _, _ := groupBySourceKV[struct{}](packed, nil)
	proto := ctree.NewKV[V](p)
	return ops.MultiUpdate(vt, srcs, func(i int, old ctree.Tree[V]) (ctree.Tree[V], bool) {
		et := old.Difference(proto.BuildLike(dsts[i], nil))
		return et, !(dropEmpty && et.Empty())
	})
}

// collectIsolatedCore removes every vertex with an empty edge tree.
func collectIsolatedCore[V ctree.Value](ops *vopsT[V], vt *vnode[V]) *vnode[V] {
	entries := make([]pftree.Entry[uint32, ctree.Tree[V]], 0, vt.Size())
	ops.ForEach(vt, func(u uint32, et ctree.Tree[V]) bool {
		if !et.Empty() {
			entries = append(entries, pftree.Entry[uint32, ctree.Tree[V]]{Key: u, Val: et})
		}
		return true
	})
	if len(entries) == vt.Size() {
		return vt
	}
	return ops.BuildSorted(entries)
}
