package aspen

import (
	"repro/internal/ctree"
)

// DiffKind classifies a vertex (or edge) change between two versions; the
// kinds are ctree's, which are pftree's underneath.
type DiffKind = ctree.DiffKind

// Re-exported kinds for aspen-level callers.
const (
	DiffAdded   = ctree.DiffAdded
	DiffRemoved = ctree.DiffRemoved
	DiffChanged = ctree.DiffChanged
)

// VertexDelta describes how one vertex's adjacency changed between two
// versions: the vertex appeared (DiffAdded, Old is the zero tree),
// disappeared (DiffRemoved, New is the zero tree), or kept its slot while
// its edge tree changed (DiffChanged). Both trees are immutable snapshots;
// Edges refines the delta to individual edge updates on demand.
type VertexDelta[V ctree.Value] struct {
	ID   uint32
	Kind DiffKind
	Old  ctree.Tree[V]
	New  ctree.Tree[V]
}

// Edges emits this vertex's per-edge delta — every neighbor added, removed
// or (for weighted graphs) re-weighted — in ascending neighbor order, via
// ctree.Diff. O(d·b + log deg) for d changed edges.
func (d VertexDelta[V]) Edges(emit func(e uint32, kind ctree.DiffKind, oldV, newV V) bool) bool {
	return ctree.Diff(d.Old, d.New, emit)
}

// diffVersionsCore walks two vertex indexes, pruning pointer-shared
// subtrees and pages (diffPages), and compares the slots of each page that
// differs by edge-tree representation (EqualRep) — O(1) per untouched
// vertex, so the walk costs O(d · height) for d touched pages between
// versions of one lineage. Deltas come out in ascending id order.
func diffVersionsCore[V ctree.Value](ocls, ncls ctree.Class[V], old, cur *tnode[V], f func(VertexDelta[V]) bool) bool {
	return diffPages(old, cur, func(p uint32, op, np *page[V]) bool {
		for s := range uint32(pageSize) {
			// Compared as handles: an unchanged slot, the common case
			// in a changed page, builds no tree.
			was, in := op.present(s), np.present(s)
			if !was && !in || was && in && op.trees[s].EqualRep(np.trees[s]) {
				continue
			}
			d := VertexDelta[V]{ID: p<<pageBits | s, Kind: DiffChanged}
			d.Old, _ = op.slot(ocls, s)
			d.New, _ = np.slot(ncls, s)
			if !was {
				d.Kind = DiffAdded
			} else if !in {
				d.Kind = DiffRemoved
			}
			if !f(d) {
				return false
			}
		}
		return true
	})
}

// DiffVersions applies f to every vertex whose adjacency differs between
// two versions of a graph, in ascending vertex order; f may return false to
// stop, and DiffVersions reports whether the walk ran to completion. Payload
// updates on an existing edge surface as DiffChanged at both levels. Because
// versions of one lineage share structure, the cost is proportional to the
// number of touched vertices (plus a logarithmic alignment term), not the
// graph size — the primitive behind flat-view patching and incremental
// kernel maintenance.
func DiffVersions[V ctree.Value](old, cur GraphOf[V], f func(VertexDelta[V]) bool) bool {
	return diffVersionsCore(old.cls, cur.cls, old.vt, cur.vt, f)
}
