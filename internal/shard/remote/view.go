package remote

import (
	"fmt"
	"slices"
)

// remoteView is one shard's flat snapshot on the client: a base CSR
// (prefix offsets + concatenated neighbor lists, as read from the empty
// version or last compacted) under a per-vertex overlay of the lists later
// deltas rewrote, plus one contiguous id-indexed degree array. Which of the two holds u's
// list is in the top bits of u's own offset: offs[u] is the start of u's
// CSR range in its low offBits bits and, above them, 0 or the 1-based index
// of the overlay list that replaces it. A traversal therefore reads exactly
// what it reads on a plain CSR — offs[u] and offs[u+1] — and touches the
// overlay only for a vertex the deltas rewrote.
//
// Views are immutable. patch derives the next version's view copy-on-write
// — it copies the degree array, the offsets and the table of list headers,
// writes the touched vertices' new lists into one allocation, and aliases
// the CSR's neighbor array and every untouched list — so a transaction
// pinned on an older version keeps reading the view it was handed while
// newer ones patch past it. It satisfies ligra.FlatGraph, so shard.Stitch
// stitches it exactly like an engine-local flat view.
//
// over is what the overlay cost since the base CSR was built, in 4-byte
// words: every list a patch wrote (live ones and the ones later patches
// superseded, which stay reachable as long as a neighbor in the same
// allocation does) plus overlayEntryWords per rewritten vertex for its
// table entry. When it passes a quarter of the shard's edges the patched
// view is compacted into a fresh CSR locally, which bounds a view at 1.25×
// its CSR.
type remoteView struct {
	order    int
	m        uint64
	weighted bool
	degs     []int32
	offs     []uint64    // order+1 entries: CSR offset | overlay index << offBits
	nbrs     []uint32    // base CSR neighbors
	wts      []float32   // parallel to nbrs on weighted shards
	lists    [][]uint32  // overlay neighbor lists
	wlists   [][]float32 // parallel to lists on weighted shards
	over     uint64
}

const (
	// offBits is the width of a CSR offset inside an offs entry; the bits
	// above it index the overlay (2^24 lists, 2^40 edges per shard — patch
	// compacts or refuses before either runs out).
	offBits = 40
	offMask = 1<<offBits - 1
	// overlayEntryWords is a list header's size in 4-byte words.
	overlayEntryWords = 6
)

// Order returns the shard's vertex-id space size.
func (v *remoteView) Order() int { return v.order }

// NumEdges returns the shard's directed edge count.
func (v *remoteView) NumEdges() uint64 { return v.m }

// Degree returns u's degree in O(1); ids beyond order have degree 0.
func (v *remoteView) Degree(u uint32) int {
	if int(u) >= v.order {
		return 0
	}
	return int(v.degs[u])
}

// Degrees exposes the id-indexed degree array (ligra.FlatGraph).
func (v *remoteView) Degrees() []int32 { return v.degs }

// list returns u's neighbors (and weights, on weighted shards) in
// increasing neighbor order. u must be below order.
func (v *remoteView) list(u uint32) ([]uint32, []float32) {
	lo := v.offs[u]
	if k := lo >> offBits; k != 0 {
		if v.weighted {
			return v.lists[k-1], v.wlists[k-1]
		}
		return v.lists[k-1], nil
	}
	hi := v.offs[u+1] & offMask
	if v.weighted {
		return v.nbrs[lo:hi], v.wts[lo:hi]
	}
	return v.nbrs[lo:hi], nil
}

// ForEachNeighbor applies f to u's neighbors in increasing order until
// f returns false.
func (v *remoteView) ForEachNeighbor(u uint32, f func(w uint32) bool) {
	if int(u) >= v.order {
		return
	}
	nbrs, _ := v.list(u)
	for _, w := range nbrs {
		if !f(w) {
			return
		}
	}
}

// remoteWeightedView adds the weighted traversal capability.
type remoteWeightedView struct{ *remoteView }

// ForEachNeighborW applies f to u's (neighbor, weight) pairs in
// increasing neighbor order until f returns false.
func (v remoteWeightedView) ForEachNeighborW(u uint32, f func(w uint32, wt float32) bool) {
	if int(u) >= v.order {
		return
	}
	nbrs, wts := v.list(u)
	for i, w := range nbrs {
		if !f(w, wts[i]) {
			return
		}
	}
}

// patch derives the view of the delta's target version from v, which must
// be the view of the delta's base: each touched vertex's list is rewritten
// into the overlay as the sorted merge old − dels + adds (an add of a
// neighbor already present replaces its weight) and everything else is
// aliased. v is never mutated. The patch is checked as it is applied —
// ascending neighbors, every del matching an edge the vertex has, every
// rewritten list exactly as long as the server's degree for it, the running
// edge count equal to the server's m — and any mismatch is an error: the
// caller discards the patch and reads the shard from the empty version.
func (v *remoteView) patch(d *delta) (*remoteView, error) {
	order := int(d.order)
	// order is a header field, and the arrays below are sized by it. A delta
	// may grow the id space by as much as the view already holds plus one id
	// per element it carried; a larger jump goes through a read from the
	// empty version, which lists every id it sizes.
	if order-v.order > v.order+len(d.verts)+d.edges() {
		return nil, fmt.Errorf("remote: delta of %d elements grows order %d → %d", len(d.verts)+d.edges(), v.order, order)
	}
	// Pass 1: the degree and edge-count bookkeeping, and the size of the
	// lists to write. Bounded by what v holds plus what the frames carried:
	// a vertex's new degree cannot exceed its old one plus its adds.
	m, arena := int64(v.m), 0
	for _, dv := range d.verts {
		old := v.Degree(dv.id)
		if int(dv.id) >= order && dv.deg != 0 {
			return nil, fmt.Errorf("remote: delta gives vertex %d degree %d beyond order %d", dv.id, dv.deg, order)
		}
		if int64(dv.deg) > int64(old)+int64(dv.nAdd) || int64(dv.deg)+int64(dv.nDel) < int64(old) {
			return nil, fmt.Errorf("remote: delta degree %d for vertex %d does not follow from %d +%d −%d", dv.deg, dv.id, old, dv.nAdd, dv.nDel)
		}
		m += int64(dv.deg) - int64(old)
		if int(dv.id) < order {
			arena += int(dv.deg)
		}
	}
	if m != int64(d.m) {
		return nil, fmt.Errorf("remote: patched edge count %d, server reports %d", m, d.m)
	}
	if uint64(len(v.nbrs)) > offMask || len(v.lists)+len(d.verts) >= 1<<(64-offBits) {
		return nil, fmt.Errorf("remote: shard too large to patch (%d CSR edges, %d overlay lists)", len(v.nbrs), len(v.lists)+len(d.verts))
	}

	weighted := v.weighted
	nv := &remoteView{
		order: order, m: d.m, weighted: weighted,
		degs: make([]int32, order),
		offs: make([]uint64, order+1),
		nbrs: v.nbrs, wts: v.wts,
		lists: append(make([][]uint32, 0, len(v.lists)+len(d.verts)), v.lists...),
		over:  v.over + uint64(arena+overlayEntryWords*len(d.verts)),
	}
	copy(nv.degs, v.degs)
	// Ids past v's space start with an empty CSR range at its end.
	for u := copy(nv.offs, v.offs); u <= order; u++ {
		nv.offs[u] = uint64(len(v.nbrs))
	}
	buf := make([]uint32, arena)
	var wbuf []float32
	if weighted {
		nv.wlists = append(make([][]float32, 0, cap(nv.lists)), v.wlists...)
		wbuf = make([]float32, arena)
		nv.over += uint64(arena)
	}
	a, x, at := 0, 0, 0
	for _, dv := range d.verts {
		adds, dels := d.adds[a:a+int(dv.nAdd)], d.dels[x:x+int(dv.nDel)]
		var addW []float32
		if weighted {
			addW = d.wts[a : a+int(dv.nAdd)]
		}
		a, x = a+int(dv.nAdd), x+int(dv.nDel)
		if int(dv.id) >= order {
			continue // dropped with the id space; pass 1 accounted its edges
		}
		var old []uint32
		var oldW []float32
		if int(dv.id) < v.order {
			old, oldW = v.list(dv.id)
		}
		out, outW := buf[at:at:at+int(dv.deg)], wbuf
		if weighted {
			outW = wbuf[at : at : at+int(dv.deg)]
		}
		var ok bool
		if out, outW, ok = mergeList(out, outW, old, oldW, adds, addW, dels); !ok {
			return nil, fmt.Errorf("remote: delta for vertex %d does not apply to the held view (degree %d, +%d −%d → %d)",
				dv.id, len(old), dv.nAdd, dv.nDel, dv.deg)
		}
		at += int(dv.deg)
		k := nv.offs[dv.id] >> offBits
		if k == 0 {
			nv.lists = append(nv.lists, nil)
			if weighted {
				nv.wlists = append(nv.wlists, nil)
			}
			k = uint64(len(nv.lists))
			nv.offs[dv.id] |= k << offBits
		}
		nv.lists[k-1] = out
		if weighted {
			nv.wlists[k-1] = outW
		}
		nv.degs[dv.id] = int32(dv.deg)
	}
	if order < v.order || nv.over > nv.m/4 {
		return nv.compact(), nil
	}
	return nv, nil
}

// mergeList appends old − dels + adds to out (and the weights alongside,
// when outW is non-nil) in ascending neighbor order and reports whether the
// delta applied cleanly: adds strictly ascending, every del found in old,
// no neighbor both added and deleted, and the result filling out exactly.
// A vertex's changes are few and a hub's list is long, so the stretches of
// old between two changes are located by binary search and copied whole.
func mergeList(out []uint32, outW []float32, old []uint32, oldW []float32, adds []uint32, addW []float32, dels []uint32) ([]uint32, []float32, bool) {
	i, j, k := 0, 0, 0
	keep := func(upto int) bool { // old[i:upto] survives
		if len(out)+upto-i > cap(out) {
			return false
		}
		out = append(out, old[i:upto]...)
		if outW != nil {
			outW = append(outW, oldW[i:upto]...)
		}
		i = upto
		return true
	}
	for j < len(dels) || k < len(adds) {
		if k < len(adds) && (j == len(dels) || adds[k] <= dels[j]) {
			w := adds[k]
			if k > 0 && w <= adds[k-1] || j < len(dels) && dels[j] == w {
				return out, outW, false
			}
			at, found := slices.BinarySearch(old[i:], w)
			if !keep(i+at) || len(out) == cap(out) {
				return out, outW, false
			}
			if found {
				i++ // re-weight: the add replaces the edge it names
			}
			out = append(out, w)
			if outW != nil {
				outW = append(outW, addW[k])
			}
			k++
			continue
		}
		at, found := slices.BinarySearch(old[i:], dels[j])
		if !found || !keep(i+at) {
			return out, outW, false
		}
		i, j = i+1, j+1
	}
	return out, outW, keep(len(old)) && len(out) == cap(out)
}

// compact rewrites v as a fresh CSR with no overlay: one pass over the
// lists, runs of vertices the overlay never touched copied from the old CSR
// in one piece, no network. The degree array is shared — both views are
// immutable.
func (v *remoteView) compact() *remoteView {
	nv := &remoteView{order: v.order, m: v.m, weighted: v.weighted, degs: v.degs,
		offs: make([]uint64, v.order+1), nbrs: make([]uint32, v.m)}
	if v.weighted {
		nv.wts = make([]float32, v.m)
	}
	for u, deg := range v.degs {
		nv.offs[u+1] = nv.offs[u] + uint64(deg)
	}
	for u := 0; u < v.order; {
		a := u
		for u < v.order && v.offs[u]>>offBits == 0 {
			u++
		}
		if a < u {
			lo, hi := v.offs[a], v.offs[u]&offMask
			copy(nv.nbrs[nv.offs[a]:], v.nbrs[lo:hi])
			if v.weighted {
				copy(nv.wts[nv.offs[a]:], v.wts[lo:hi])
			}
			continue
		}
		nbrs, wts := v.list(uint32(u))
		copy(nv.nbrs[nv.offs[u]:], nbrs)
		if v.weighted {
			copy(nv.wts[nv.offs[u]:], wts)
		}
		u++
	}
	return nv
}
