package ctree

import (
	"repro/internal/encoding"
	"repro/internal/pftree"
	"repro/internal/scratch"
)

// DiffKind classifies one element's change between two tree versions. The
// kinds are pftree's — the head-tree diff underneath this one.
type DiffKind = pftree.DiffKind

// Re-exported kinds, so ctree (and aspen) callers need not import pftree.
const (
	DiffAdded   = pftree.DiffAdded
	DiffRemoved = pftree.DiffRemoved
	DiffChanged = pftree.DiffChanged
)

// chunkSameRep reports whether two chunks share backing storage (the chunk
// analogue of Tree.EqualRep): functional updates copy chunks they touch and
// alias the rest, so pointer-equal storage implies identical contents.
func chunkSameRep(a, b encoding.Chunk) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || &a[0] == &b[0]
}

// diffStream accumulates the elements of one side's differing regions, in
// ascending order: the prefix (when its storage moved) followed by every
// differing head and its tail. Region boundaries can move between versions
// — deleting a head folds its tail into the predecessor's chunk or the
// prefix — so membership is only decided by the final merge of the two
// streams, never per region.
type diffStream[V Value] struct {
	ids  []uint32
	vals []V
}

func (s *diffStream[V]) add(e uint32, v V) {
	s.ids = append(s.ids, e)
	s.vals = append(s.vals, v)
}

// reset empties s for reuse under the scratch.Keep rule.
func (s *diffStream[V]) reset() {
	s.ids, s.vals = scratch.Trim(s.ids), scratch.Trim(s.vals)
}

// diffScratch is the pair of streams one Diff call fills. Diffs run once
// per touched vertex of every delta read, so the pair is pooled per tree
// class (config.diffPool) instead of allocated and grown per call.
type diffScratch[V Value] struct{ os, ns diffStream[V] }

func (s *diffStream[V]) addChunk(codec encoding.Codec, c encoding.Chunk) {
	encoding.ForEachKV[V](codec, c, func(e uint32, v V) bool {
		s.add(e, v)
		return true
	})
}

// Diff emits every element whose membership or payload differs between old
// and new, in ascending element order, classified as added (new only),
// removed (old only) or changed (present in both with different payloads).
// emit receives the zero V for the side an element is absent from and may
// return false to stop; Diff reports whether it ran to completion.
//
// Cost is O(d·b + log n) expected for d differing elements: the head-tree
// walk skips pointer-shared subtrees (pftree.Ops.Diff) and compares
// surviving heads by chunk storage identity in O(1), so only chunks whose
// storage actually moved — O(diff/b + 1) of them per touched region, each
// of expected size b — are decoded and merged element-wise. A zero-value
// tree on either side adopts the other's parameters, so diffing against an
// absent tree yields every element as added (or removed).
func Diff[V Value](old, new Tree[V], emit func(e uint32, kind DiffKind, oldV, newV V) bool) bool {
	switch {
	case old.h == nil && new.h == nil:
		return true
	case old.h == nil:
		old.h = new.h
	case new.h == nil:
		new.h = old.h
	}
	old.samep(new)
	if old.EqualRep(new) {
		return true
	}
	codec := old.h.p.Codec
	sc, _ := old.h.diffPool.Get().(*diffScratch[V])
	if sc == nil {
		sc = &diffScratch[V]{}
	}
	os, ns := &sc.os, &sc.ns
	if !chunkSameRep(old.prefix, new.prefix) {
		os.addChunk(codec, old.prefix)
		ns.addChunk(codec, new.prefix)
	}
	old.h.ops.Diff(old.root, new.root,
		func(a, b tail[V]) bool { return a.hv == b.hv && chunkSameRep(a.c, b.c) },
		func(h uint32, kind DiffKind, ot, nt tail[V]) bool {
			if kind != DiffAdded {
				os.add(h, ot.hv)
				os.addChunk(codec, ot.c)
			}
			if kind != DiffRemoved {
				ns.add(h, nt.hv)
				ns.addChunk(codec, nt.c)
			}
			return true
		})
	done := mergeDiff(os, ns, emit)
	os.reset()
	ns.reset()
	old.h.diffPool.Put(sc)
	return done
}

// mergeDiff merges the two sorted differing-region streams and emits the
// element-level classification. Elements appearing in both streams with
// equal payloads only moved containers (a head deletion redistributing its
// tail, say) and are not a diff.
func mergeDiff[V Value](os, ns *diffStream[V], emit func(e uint32, kind DiffKind, oldV, newV V) bool) bool {
	var z V
	i, j := 0, 0
	for i < len(os.ids) && j < len(ns.ids) {
		switch oe, ne := os.ids[i], ns.ids[j]; {
		case oe < ne:
			if !emit(oe, DiffRemoved, os.vals[i], z) {
				return false
			}
			i++
		case oe > ne:
			if !emit(ne, DiffAdded, z, ns.vals[j]) {
				return false
			}
			j++
		default:
			if os.vals[i] != ns.vals[j] && !emit(oe, DiffChanged, os.vals[i], ns.vals[j]) {
				return false
			}
			i++
			j++
		}
	}
	for ; i < len(os.ids); i++ {
		if !emit(os.ids[i], DiffRemoved, os.vals[i], z) {
			return false
		}
	}
	for ; j < len(ns.ids); j++ {
		if !emit(ns.ids[j], DiffAdded, z, ns.vals[j]) {
			return false
		}
	}
	return true
}
