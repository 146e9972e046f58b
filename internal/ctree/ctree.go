// Package ctree implements the C-tree (paper §3–§4): a compressed
// purely-functional search tree over uint32 elements, generic over a
// fixed-width per-element payload V. A hash function promotes roughly one
// in B elements to be a head; heads live in a purely-functional
// weight-balanced tree and every head stores, as its value, its own payload
// plus the chunk of non-head elements that follow it (its tail). Non-head
// elements smaller than every head form the prefix. Because head-ness is
// determined by the element's hash, the same element is a head in every
// tree that contains it, which keeps the batch algorithms simple and
// efficient.
//
// Chunks are stored contiguously and, for the Delta codec,
// difference-encoded with byte codes, with each element's value bytes
// interleaved after its gap code — giving the space usage and locality of
// compressed static representations while keeping O(log n)-ish
// purely-functional updates. V = struct{} (the Set alias) is the paper's
// id-only tree and pays zero bytes for the payload; V = float32 is the
// compressed weighted adjacency set the paper defers to future work (§6).
//
// Three configurations reproduce the paper's three memory formats:
//
//   - Params{Plain: true}: every element is a head with an empty tail — an
//     ordinary purely-functional tree ("Aspen Uncomp.").
//   - Params{B: b, Codec: encoding.Raw}: chunked, not difference-encoded
//     ("Aspen (No DE)").
//   - Params{B: b, Codec: encoding.Delta}: chunked and difference-encoded
//     ("Aspen (DE)") — the default.
package ctree

import (
	"fmt"
	"math"
	"reflect"
	"sync"

	"repro/internal/encoding"
	"repro/internal/pftree"
	"repro/internal/xhash"
)

// Value is the payload constraint re-exported from encoding: a fixed-width,
// pointer-free, comparable type.
type Value = encoding.Value

// Params fixes the chunking parameter and chunk representation of a C-tree.
// Trees combined by set operations must share identical Params.
type Params struct {
	// B is the expected chunk size: an element e is a head iff
	// hash(e) mod B == 0. Must be >= 1.
	B uint32
	// Codec selects the chunk payload encoding.
	Codec encoding.Codec
	// Plain promotes every element to a head, disabling chunking; the
	// result is an ordinary purely-functional tree.
	Plain bool
}

// DefaultB is the chunk size used across the paper's experiments (2^8,
// chosen in Table 5 as the best memory/parallelism tradeoff).
const DefaultB = 1 << 8

// DefaultParams returns the paper's default configuration: b = 2^8 with
// difference encoding.
func DefaultParams() Params { return Params{B: DefaultB, Codec: encoding.Delta} }

// PlainParams returns the uncompressed purely-functional tree configuration.
func PlainParams() Params { return Params{B: 1, Plain: true} }

// isHead reports whether e is promoted to a head under p.
func (p Params) isHead(e uint32) bool {
	return p.Plain || xhash.Mix32(e)%uint64(p.B) == 0
}

// tail is a head's stored value: the head element's own payload plus the
// encoded chunk of the non-head elements that follow it.
type tail[V Value] struct {
	hv V
	c  encoding.Chunk
}

// hnode is a node of the head tree: key = head element, value = tail,
// augmented with the total element count (head + tail) of the subtree.
type hnode[V Value] = pftree.Node[uint32, tail[V], uint64]

// hopsT is the node-level operation set of a head tree.
type hopsT[V Value] = pftree.Ops[uint32, tail[V], uint64]

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

func addU64(a, b uint64) uint64 { return a + b }

// config bundles everything trees of one (payload type, Params) class
// share: the parameters, the head-tree operation table, and the two
// canonical merge-policy function values. Configs are interned, so a Tree
// carries a single pointer (keeping the struct at PR-1's size — the values
// stored per vertex-tree node are copied and GC-scanned constantly) and
// parameter equality is pointer equality. Function values referencing
// generic instantiations carry a dictionary pointer and so allocate when
// materialized; interning them keeps the nil-merge (last-writer-wins)
// Union path allocation-free.
type config[V Value] struct {
	p   Params
	ops *hopsT[V]
	// takeNew keeps the second (newer) value, takeOld the first.
	takeNew func(V, V) V
	takeOld func(V, V) V
	// diffPool recycles Diff's element streams (*diffScratch[V]).
	diffPool sync.Pool
}

// cfgKey keys the intern table by payload type and parameters.
type cfgKey struct {
	t reflect.Type
	p Params
}

var cfgCache sync.Map // cfgKey -> *config[V]

func cfgFor[V Value](p Params) *config[V] {
	key := cfgKey{t: reflect.TypeFor[V](), p: p}
	if v, ok := cfgCache.Load(key); ok {
		return v.(*config[V])
	}
	c := &config[V]{
		p: p,
		ops: &hopsT[V]{
			Cmp: cmpU32,
			Aug: pftree.Augment[uint32, tail[V], uint64]{
				Zero:      0,
				FromEntry: func(_ uint32, t tail[V]) uint64 { return 1 + uint64(t.c.Count()) },
				Combine:   addU64,
			},
		},
		takeNew: takeSecond[V],
		takeOld: takeFirst[V],
	}
	actual, _ := cfgCache.LoadOrStore(key, c)
	return actual.(*config[V])
}

// Class is the configuration shared by every tree of one payload type and
// one Params: a Tree is a Class plus a Handle. A container of many trees of
// one class — the graph's vertex pages — keeps the class once and stores
// handles, 8 bytes a tree less.
type Class[V Value] struct{ h *config[V] }

// ClassOf returns the class of trees over V with parameters p.
func ClassOf[V Value](p Params) Class[V] { return Class[V]{cfgFor[V](p)} }

// Params returns the class's parameters (the zero Params for the zero
// Class).
func (c Class[V]) Params() Params {
	if c.h == nil {
		return Params{}
	}
	return c.h.p
}

// Tree returns the tree of class c with handle h.
func (c Class[V]) Tree(h Handle[V]) Tree[V] { return Tree[V]{h: c.h, prefix: h.prefix, root: h.root} }

// Handle is a Tree without its class: the prefix chunk and the head-tree
// root. The zero Handle is the empty tree's.
type Handle[V Value] struct {
	prefix encoding.Chunk
	root   *hnode[V]
}

// Handle returns t's handle.
func (t Tree[V]) Handle() Handle[V] { return Handle[V]{prefix: t.prefix, root: t.root} }

// Tree is an immutable C-tree mapping uint32 elements to payloads of type
// V. The zero Tree has unusable Params; construct trees with New/NewKV or
// Build/BuildKV. All operations return new trees that share structure with
// their inputs, so existing snapshots are never disturbed.
type Tree[V Value] struct {
	// The handle's fields come first and in its order, so Class.Tree and
	// Tree.Handle copy one block.
	prefix encoding.Chunk
	root   *hnode[V]
	h      *config[V]
}

// Set is the id-only C-tree — the paper's original structure, and the
// representation behind every unweighted Aspen graph.
type Set = Tree[struct{}]

// NewKV returns an empty C-tree over payload type V with the given
// parameters.
func NewKV[V Value](p Params) Tree[V] {
	if p.B < 1 {
		panic("ctree: Params.B must be >= 1")
	}
	return Tree[V]{h: cfgFor[V](p)}
}

// New returns an empty id-only C-tree with the given parameters.
func New(p Params) Set { return NewKV[struct{}](p) }

// ops returns the interned config, resolving the zero-Params config for
// zero-value trees that never went through a constructor (their Params are
// unusable, matching the historical zero Tree).
func (t Tree[V]) ops() *config[V] {
	if t.h != nil {
		return t.h
	}
	return cfgFor[V](Params{})
}

// BuildKV constructs a C-tree over ids (strictly increasing) carrying
// vals (same length, or nil for zero values). O(n) work given sorted
// input; O(b log n) depth w.h.p.
func BuildKV[V Value](p Params, ids []uint32, vals []V) Tree[V] {
	return NewKV[V](p).BuildLike(ids, vals)
}

// BuildLike builds a fresh tree over (ids, vals) sharing t's parameters
// and interned operation table. Batch loops that construct many trees use
// it to skip the per-call table lookup of BuildKV.
func (t Tree[V]) BuildLike(ids []uint32, vals []V) Tree[V] {
	t = Tree[V]{h: t.ops()}
	p := t.h.p
	if len(ids) == 0 {
		return t
	}
	if vals != nil && len(vals) != len(ids) {
		panic("ctree: ids/vals length mismatch")
	}
	// Single pass: each element is hashed once (isHead costs a multiply and
	// a divide) and every head's tail segment is encoded in place as soon
	// as the next head is found. The entry slice is allocated at the first
	// head — a short run (most batch runs at B = 256) holds none and is all
	// prefix — and sized to the expected head count of the rest, so growth
	// is rare.
	var entries []pftree.Entry[uint32, tail[V]]
	head := -1 // index of the pending head
	for i, e := range ids {
		if !p.isHead(e) {
			continue
		}
		if head < 0 {
			t.prefix = encoding.EncodeKV(p.Codec, ids[:i], valRange(vals, 0, i))
			entries = make([]pftree.Entry[uint32, tail[V]], 0, (len(ids)-i)/int(p.B)+1)
		} else {
			entries = append(entries, pftree.Entry[uint32, tail[V]]{
				Key: ids[head],
				Val: tail[V]{
					hv: valAt(vals, head),
					c:  encoding.EncodeKV(p.Codec, ids[head+1:i], valRange(vals, head+1, i)),
				},
			})
		}
		head = i
	}
	if head < 0 {
		t.prefix = encoding.EncodeKV(p.Codec, ids, vals)
		return t
	}
	entries = append(entries, pftree.Entry[uint32, tail[V]]{
		Key: ids[head],
		Val: tail[V]{
			hv: valAt(vals, head),
			c:  encoding.EncodeKV(p.Codec, ids[head+1:], valRange(vals, head+1, len(ids))),
		},
	})
	t.root = t.h.ops.BuildSorted(entries)
	return t
}

// Build constructs an id-only C-tree over elems, which must be strictly
// increasing.
func Build(p Params, elems []uint32) Set { return BuildKV[struct{}](p, elems, nil) }

// valAt returns vals[i], or the zero value when vals is nil.
func valAt[V Value](vals []V, i int) V {
	if vals == nil {
		var z V
		return z
	}
	return vals[i]
}

// valRange returns vals[lo:hi], staying nil when vals is nil.
func valRange[V Value](vals []V, lo, hi int) []V {
	if vals == nil {
		return nil
	}
	return vals[lo:hi]
}

// Params returns the tree's parameters.
func (t Tree[V]) Params() Params { return t.ops().p }

// Size returns the number of elements, in O(1) via augmentation.
func (t Tree[V]) Size() uint64 {
	return uint64(t.prefix.Count()) + t.root.AugOrZero()
}

// Empty reports whether the tree holds no elements.
func (t Tree[V]) Empty() bool { return t.root == nil && t.prefix.Empty() }

// Contains reports whether e is in the tree. O(log n + b) expected work.
func (t Tree[V]) Contains(e uint32) bool {
	_, ok := t.Find(e)
	return ok
}

// Find returns the payload stored for e. O(log n + b) expected work.
func (t Tree[V]) Find(e uint32) (V, bool) {
	t = t.norm()
	if v, ok := encoding.FindKV[V](t.h.p.Codec, t.prefix, e); ok {
		return v, true
	}
	n, ok := t.ops().ops.FindLE(t.root, e)
	if !ok {
		var z V
		return z, false
	}
	if n.Key() == e {
		return n.Val().hv, true
	}
	return encoding.FindKV[V](t.h.p.Codec, n.Val().c, e)
}

// ForEachKV applies f to every (element, payload) pair in increasing order
// until f returns false.
func (t Tree[V]) ForEachKV(f func(e uint32, v V) bool) {
	t = t.norm()
	stop := false
	encoding.ForEachKV(t.h.p.Codec, t.prefix, func(e uint32, v V) bool {
		if !f(e, v) {
			stop = true
		}
		return !stop
	})
	if stop {
		return
	}
	t.ops().ops.ForEach(t.root, func(h uint32, tl tail[V]) bool {
		if !f(h, tl.hv) {
			return false
		}
		ok := true
		encoding.ForEachKV(t.h.p.Codec, tl.c, func(e uint32, v V) bool {
			if !f(e, v) {
				ok = false
			}
			return ok
		})
		return ok
	})
}

// chunkForEach walks a chunk's ids under the tree's payload width (the
// id-only Chunk.ForEach would mis-parse value bytes as gap codes).
func (t Tree[V]) chunkForEach(c encoding.Chunk, f func(e uint32) bool) bool {
	return encoding.ForEachIDs[V](t.h.p.Codec, c, f)
}

// ForEach applies f to every element in increasing order until f returns
// false.
func (t Tree[V]) ForEach(f func(e uint32) bool) { t.ForEachFrom(0, f) }

// ForEachFrom is ForEach from the element of rank k ≥ 0 on: the prefix and
// the tails before it are skipped by their counts without being decoded,
// and only the chunk that holds rank k is decoded up to it. A caller that
// already holds a tree's first elements (the graph's vertex pages keep two)
// continues the walk behind them with it.
func (t Tree[V]) ForEachFrom(k int, f func(e uint32) bool) {
	if len(t.prefix) == 0 && t.root == nil {
		return
	}
	t = t.norm()
	codec := t.h.p.Codec
	if n := t.prefix.Count(); k >= n {
		k -= n
	} else if !encoding.ForEachIDsFrom[V](codec, t.prefix, k, f) {
		return
	} else {
		k = 0
	}
	if t.root == nil {
		return // most adjacency sets are below one chunk: all prefix, no heads
	}
	t.h.ops.ForEach(t.root, func(h uint32, tl tail[V]) bool {
		if k > 0 {
			k--
		} else if !f(h) {
			return false
		}
		if n := tl.c.Count(); k >= n {
			k -= n
			return true
		}
		ok := encoding.ForEachIDsFrom[V](codec, tl.c, k, f)
		k = 0
		return ok
	})
}

// ForEachPar applies f to every element with tree-node parallelism; within
// a chunk elements are delivered sequentially in order, across chunks the
// order is unspecified. f must be safe for concurrent use.
func (t Tree[V]) ForEachPar(f func(e uint32)) {
	t = t.norm()
	t.chunkForEach(t.prefix, func(e uint32) bool { f(e); return true })
	t.ops().ops.ForEachPar(t.root, func(h uint32, tl tail[V]) {
		f(h)
		t.chunkForEach(tl.c, func(e uint32) bool { f(e); return true })
	})
}

// ToSlice returns all elements in increasing order.
func (t Tree[V]) ToSlice() []uint32 {
	out := make([]uint32, 0, t.Size())
	t.ForEach(func(e uint32) bool {
		out = append(out, e)
		return true
	})
	return out
}

// First returns the smallest element.
func (t Tree[V]) First() (uint32, bool) {
	if !t.prefix.Empty() {
		return t.prefix.First(), true
	}
	if n := t.ops().ops.First(t.root); n != nil {
		return n.Key(), true
	}
	return 0, false
}

// Stats describes the memory shape of a C-tree for the space experiments.
type Stats struct {
	// Nodes is the number of head-tree nodes.
	Nodes int
	// ChunkBytes is the total encoded size of all chunks (tails + prefix),
	// including their 12-byte headers and any payload value bytes.
	ChunkBytes int
	// Elements is the total element count.
	Elements uint64
}

// Add accumulates s2 into s.
func (s *Stats) Add(s2 Stats) {
	s.Nodes += s2.Nodes
	s.ChunkBytes += s2.ChunkBytes
	s.Elements += s2.Elements
}

// Stats walks the tree and returns its memory shape.
func (t Tree[V]) Stats() Stats {
	s := Stats{ChunkBytes: t.prefix.Bytes(), Elements: t.Size()}
	t.ops().ops.ForEach(t.root, func(_ uint32, tl tail[V]) bool {
		s.Nodes++
		s.ChunkBytes += tl.c.Bytes()
		return true
	})
	return s
}

// smallestHead returns the smallest head of n, or math.MaxUint64 when n is
// nil (so comparisons treat the empty tree as +infinity).
func smallestHead[V Value](h *hopsT[V], n *hnode[V]) uint64 {
	if n == nil {
		return math.MaxUint64
	}
	return uint64(h.First(n).Key())
}

// splitChunkBelow splits c around bound (an exclusive upper key that is
// either a head value or +infinity). Heads never occur inside chunks, so
// the middle "found" slot is impossible; it is asserted away.
func (t Tree[V]) splitChunkBelow(c encoding.Chunk, bound uint64) (lo, hi encoding.Chunk) {
	if c.Empty() {
		return nil, nil
	}
	if bound > math.MaxUint32 {
		return c, nil
	}
	lo, _, found, hi := encoding.SplitKV[V](t.h.p.Codec, c, uint32(bound))
	if found {
		panic("ctree: head value found inside a chunk")
	}
	return lo, hi
}

// chunkUnion merges two chunks under the tree's codec; m resolves payload
// collisions as m(aVal, bVal), with nil keeping b's value.
func (t Tree[V]) chunkUnion(a, b encoding.Chunk, m func(av, bv V) V) encoding.Chunk {
	return encoding.UnionKV(t.h.p.Codec, a, b, m)
}

// wrap assembles a Tree from parts under t's params.
func (t Tree[V]) wrap(root *hnode[V], prefix encoding.Chunk) Tree[V] {
	return Tree[V]{h: t.h, prefix: prefix, root: root}
}

// norm returns t with its operation table resolved, so internal recursion
// can rely on t.h being non-nil.
func (t Tree[V]) norm() Tree[V] {
	if t.h == nil {
		t.h = cfgFor[V](Params{})
	}
	return t
}

// samep panics unless u shares t's parameters. Configs are interned per
// (payload, Params), so this is a pointer compare.
func (t Tree[V]) samep(u Tree[V]) {
	if t.ops() != u.ops() {
		panic(fmt.Sprintf("ctree: parameter mismatch: %+v vs %+v", t.Params(), u.Params()))
	}
}

// EqualRep reports whether t and u share the same representation (root node
// and prefix storage). Functional updates leave untouched subtrees
// pointer-identical across versions, so EqualRep lets version-diffing code
// skip them in O(1) — the structural-sharing dividend of persistence.
func (t Tree[V]) EqualRep(u Tree[V]) bool { return t.Handle().EqualRep(u.Handle()) }

// EqualRep is Tree.EqualRep on handles.
func (h Handle[V]) EqualRep(o Handle[V]) bool {
	if h.root != o.root || len(h.prefix) != len(o.prefix) {
		return false
	}
	return len(h.prefix) == 0 || &h.prefix[0] == &o.prefix[0]
}

// takeFirst and takeSecond are the canonical merge policies: keep the
// receiver's payload, or keep the argument's (last-writer-wins).
func takeFirst[V Value](a, _ V) V  { return a }
func takeSecond[V Value](_, b V) V { return b }
