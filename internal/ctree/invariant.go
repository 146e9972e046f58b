package ctree

import (
	"fmt"

	"repro/internal/encoding"
)

// CheckInvariants verifies the structural invariants of the C-tree:
//
//  1. the head tree is a valid weight-balanced BST with correct element
//     counts in its augmentation;
//  2. every head satisfies the head-hash condition and no chunk element does;
//  3. elements are globally sorted: prefix < first head, and every tail lies
//     strictly between its head and the successor head.
//
// It is O(n) and intended for tests.
func (t Tree[V]) CheckInvariants() error {
	t = t.norm()
	if err := t.h.ops.CheckInvariants(t.root, func(a, b uint64) bool { return a == b }); err != nil {
		return err
	}
	if !t.prefix.Empty() {
		if first := t.h.ops.First(t.root); first != nil && t.prefix.Last() >= first.Key() {
			return fmt.Errorf("ctree: prefix reaches past the first head")
		}
	}
	if err := t.checkChunk(t.prefix, "prefix"); err != nil {
		return err
	}
	var prev int64 = -1
	var err error
	t.ForEach(func(e uint32) bool {
		if int64(e) <= prev {
			err = fmt.Errorf("ctree: elements out of order at %d (prev %d)", e, prev)
			return false
		}
		prev = int64(e)
		return true
	})
	if err != nil {
		return err
	}
	t.h.ops.ForEach(t.root, func(h uint32, tl tail[V]) bool {
		if !t.h.p.isHead(h) {
			err = fmt.Errorf("ctree: %d stored as head but does not hash as one", h)
			return false
		}
		if !tl.c.Empty() && tl.c.First() <= h {
			err = fmt.Errorf("ctree: tail of head %d starts at %d", h, tl.c.First())
			return false
		}
		if e := t.checkChunk(tl.c, fmt.Sprintf("tail of %d", h)); e != nil {
			err = e
			return false
		}
		return true
	})
	if err != nil {
		return err
	}
	// Tail elements must precede the successor head: global order already
	// checked above via ForEach, which interleaves heads and tails.
	var count uint64
	t.ForEach(func(uint32) bool { count++; return true })
	if count != t.Size() {
		return fmt.Errorf("ctree: Size() = %d but %d elements enumerated", t.Size(), count)
	}
	return nil
}

// checkChunk verifies no chunk element hashes as a head and the chunk
// header matches its payload (decoded under the tree's payload width).
func (t Tree[V]) checkChunk(c encoding.Chunk, what string) error {
	if c.Empty() {
		return nil
	}
	ids, _ := encoding.DecodeKV[V](t.h.p.Codec, c, nil, nil)
	if len(ids) != c.Count() {
		return fmt.Errorf("ctree: %s count header %d != %d decoded", what, c.Count(), len(ids))
	}
	if ids[0] != c.First() || ids[len(ids)-1] != c.Last() {
		return fmt.Errorf("ctree: %s first/last header mismatch", what)
	}
	for _, e := range ids {
		if t.h.p.isHead(e) {
			return fmt.Errorf("ctree: %s contains head-valued element %d", what, e)
		}
	}
	return nil
}
