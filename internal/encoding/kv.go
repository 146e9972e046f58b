package encoding

import "encoding/binary"

// This file is the generic core of the chunk format: every operation is
// parameterized by a fixed-width payload type V (see value.go). The byte
// layout interleaves ids and values so one forward scan visits both:
//
//	Raw:   header | id₀ val₀ | id₁ val₁ | ...
//	Delta: header | val₀ | gap₁ val₁ | gap₂ val₂ | ...
//
// (gapᵢ is the varint-coded difference idᵢ − idᵢ₋₁; id₀ lives in the
// header). With width(V) = 0 both layouts are byte-identical to the PR-1
// id-only format, so the unweighted wrappers in chunk.go are free.
//
// Two properties of the PR-1 pipeline are preserved because value bytes are
// fixed-width and delta gaps are position-independent:
//
//   - any chunk suffix starting at an element boundary is byte-copyable
//     (the memcpy drain in IterKV.AppendRemaining);
//   - disjoint-range concatenation is a byte splice plus, for Delta, one
//     bridging gap varint (concatDisjoint).

// EncodeKV builds a chunk from ids (strictly increasing) and their values.
// vals must have the same length as ids, or be nil to encode zero values.
// Neither slice is retained.
func EncodeKV[V Value](codec Codec, ids []uint32, vals []V) Chunk {
	n := len(ids)
	if n == 0 {
		return nil
	}
	if vals != nil && len(vals) != n {
		panic("encoding: ids/vals length mismatch")
	}
	w := valueWidth[V]()
	var c []byte
	switch {
	case codec == Raw && w == 0:
		c = make([]byte, headerSize+4*n)
		for i, e := range ids {
			binary.LittleEndian.PutUint32(c[headerSize+4*i:], e)
		}
	case codec == Raw:
		c = make([]byte, headerSize, headerSize+(4+w)*n)
		for i, e := range ids {
			c = binary.LittleEndian.AppendUint32(c, e)
			c = appendValue(c, valAt(vals, i))
		}
	case codec == Delta && w == 0:
		c = make([]byte, headerSize, headerSize+n+n/2)
		prev := ids[0]
		for _, e := range ids[1:] {
			c = putUvarint(c, e-prev)
			prev = e
		}
	case codec == Delta:
		c = make([]byte, headerSize, headerSize+n+n/2+w*n)
		c = appendValue(c, valAt(vals, 0))
		prev := ids[0]
		for i := 1; i < n; i++ {
			c = putUvarint(c, ids[i]-prev)
			prev = ids[i]
			c = appendValue(c, valAt(vals, i))
		}
	default:
		panic("encoding: unknown codec")
	}
	binary.LittleEndian.PutUint32(c[0:4], uint32(n))
	binary.LittleEndian.PutUint32(c[4:8], ids[0])
	binary.LittleEndian.PutUint32(c[8:12], ids[n-1])
	return c
}

// DecodeKV appends the ids and values of c to the given slices and returns
// them. Intended for tests and invariant checks; hot paths use IterKV.
func DecodeKV[V Value](codec Codec, c Chunk, ids []uint32, vals []V) ([]uint32, []V) {
	for it := NewIterKV[V](codec, c); it.Valid(); it.Next() {
		ids = append(ids, it.Value())
		vals = append(vals, it.Payload())
	}
	return ids, vals
}

// ForEachKV calls f on each (id, value) pair of c in increasing id order.
// If f returns false iteration stops early.
func ForEachKV[V Value](codec Codec, c Chunk, f func(x uint32, v V) bool) {
	n := c.Count()
	if n == 0 {
		return
	}
	w := valueWidth[V]()
	switch codec {
	case Raw:
		stride := 4 + w
		for i := 0; i < n; i++ {
			off := headerSize + stride*i
			if !f(binary.LittleEndian.Uint32(c[off:]), readValueAt[V](c, off+4, w)) {
				return
			}
		}
	case Delta:
		v := c.First()
		if !f(v, readValueAt[V](c, headerSize, w)) {
			return
		}
		i := headerSize + w
		for k := 1; k < n; k++ {
			var d uint32
			d, i = uvarint(c, i)
			v += d
			if !f(v, readValueAt[V](c, i, w)) {
				return
			}
			i += w
		}
	default:
		panic("encoding: unknown codec")
	}
}

// ForEachIDs walks only the ids of a width-V chunk — the traversal hot
// path. The per-element work is an open-coded decode (no iterator method
// calls), matching the zero-allocation ForEach of the id-only format.
func ForEachIDs[V Value](codec Codec, c Chunk, f func(x uint32) bool) bool {
	return ForEachIDsFrom[V](codec, c, 0, f)
}

// ForEachIDsFrom is ForEachIDs starting at the element of rank k: the ids
// before it are decoded (a Delta chunk has no other way to reach it) but
// not passed to f. A k at or past the count walks nothing.
func ForEachIDsFrom[V Value](codec Codec, c Chunk, k int, f func(x uint32) bool) bool {
	n := c.Count()
	if k >= n {
		return true
	}
	w := valueWidth[V]()
	switch codec {
	case Raw:
		stride := 4 + w
		for i := k; i < n; i++ {
			if !f(binary.LittleEndian.Uint32(c[headerSize+stride*i:])) {
				return false
			}
		}
	case Delta:
		v, i := c.First(), headerSize+w
		for j := 0; j < k; j++ {
			var d uint32
			d, i = uvarint(c, i)
			i += w
			v += d
		}
		if !f(v) {
			return false
		}
		for j := k + 1; j < n; j++ {
			var d uint32
			d, i = uvarint(c, i)
			i += w
			v += d
			if !f(v) {
				return false
			}
		}
	default:
		panic("encoding: unknown codec")
	}
	return true
}

// FindKV returns the value stored for x. O(1) rejection via the header
// bounds, O(chunk) scan otherwise.
func FindKV[V Value](codec Codec, c Chunk, x uint32) (V, bool) {
	var z V
	if c.Empty() || x < c.First() || x > c.Last() {
		return z, false
	}
	for it := NewIterKV[V](codec, c); it.Valid(); it.Next() {
		if e := it.Value(); e >= x {
			if e == x {
				return it.Payload(), true
			}
			return z, false
		}
	}
	return z, false
}

// ContainsKV reports whether x is an element of c under the payload-aware
// layout.
func ContainsKV[V Value](codec Codec, c Chunk, x uint32) bool {
	_, ok := FindKV[V](codec, c, x)
	return ok
}

// SplitKV partitions c around k: left receives elements < k, right elements
// > k, and (v, found) report k's value and presence. Cheap boundary cases
// avoid decoding entirely; Raw chunks binary-search the fixed-stride payload
// and splice bytes, Delta chunks stream once through the gap code. Neither
// path materializes decoded slices.
func SplitKV[V Value](codec Codec, c Chunk, k uint32) (left Chunk, v V, found bool, right Chunk) {
	var z V
	if c.Empty() {
		return nil, z, false, nil
	}
	if k < c.First() {
		return nil, z, false, c
	}
	if k > c.Last() {
		return c, z, false, nil
	}
	if codec == Raw {
		return splitRawKV[V](c, k)
	}
	return splitDeltaKV[V](c, k)
}

// splitDeltaKV splits a Delta chunk around k (within header bounds) with a
// single forward scan and two byte copies — no re-encoding. The left half is
// a byte-prefix of c (kept gaps and values are unchanged) and the right half
// a byte-suffix starting at an element boundary, so only headers are
// rewritten.
func splitDeltaKV[V Value](c Chunk, k uint32) (left Chunk, fv V, found bool, right Chunk) {
	w := valueWidth[V]()
	n := c.Count()
	v := c.First()
	valOff := headerSize // offset of the current element's value bytes
	i := 0               // index of the current element
	encStart := headerSize
	var pv uint32 // ids[i-1], valid once i > 0
	for v < k {
		// k <= Last() guarantees another element exists.
		pv = v
		gapPos := valOff + w
		encStart = gapPos
		d, ngap := uvarint(c, gapPos)
		v += d
		valOff = ngap
		i++
	}
	// v == ids[i] is the first element >= k; its encoding (for i >= 1)
	// begins at encStart and its value bytes at valOff.
	if i > 0 {
		left = make(Chunk, encStart)
		copy(left, c[:encStart])
		binary.LittleEndian.PutUint32(left[0:4], uint32(i))
		binary.LittleEndian.PutUint32(left[8:12], pv)
	}
	if v == k {
		fv = readValueAt[V](c, valOff, w)
		if i+1 < n {
			d, ngap := uvarint(c, valOff+w)
			right = make(Chunk, headerSize+len(c)-ngap)
			copy(right[headerSize:], c[ngap:])
			binary.LittleEndian.PutUint32(right[0:4], uint32(n-i-1))
			binary.LittleEndian.PutUint32(right[4:8], v+d)
			binary.LittleEndian.PutUint32(right[8:12], c.Last())
		}
		return left, fv, true, right
	}
	right = make(Chunk, headerSize+len(c)-valOff)
	copy(right[headerSize:], c[valOff:])
	binary.LittleEndian.PutUint32(right[0:4], uint32(n-i))
	binary.LittleEndian.PutUint32(right[4:8], v)
	binary.LittleEndian.PutUint32(right[8:12], c.Last())
	var z V
	return left, z, false, right
}

// splitRawKV splits a Raw chunk around k (within header bounds) by binary
// search over the fixed-stride payload, copying each half byte-wise.
func splitRawKV[V Value](c Chunk, k uint32) (left Chunk, fv V, found bool, right Chunk) {
	w := valueWidth[V]()
	stride := 4 + w
	n := c.Count()
	word := func(i int) uint32 { return binary.LittleEndian.Uint32(c[headerSize+stride*i:]) }
	// First index with element >= k.
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		if word(mid) < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	i := lo
	found = i < n && word(i) == k
	j := i
	if found {
		fv = readValueAt[V](c, headerSize+stride*i+4, w)
		j++
	}
	if i > 0 {
		left = make(Chunk, headerSize+stride*i)
		copy(left[headerSize:], c[headerSize:headerSize+stride*i])
		binary.LittleEndian.PutUint32(left[0:4], uint32(i))
		binary.LittleEndian.PutUint32(left[4:8], c.First())
		binary.LittleEndian.PutUint32(left[8:12], word(i-1))
	}
	if j < n {
		right = make(Chunk, headerSize+stride*(n-j))
		copy(right[headerSize:], c[headerSize+stride*j:])
		binary.LittleEndian.PutUint32(right[0:4], uint32(n-j))
		binary.LittleEndian.PutUint32(right[4:8], word(j))
		binary.LittleEndian.PutUint32(right[8:12], c.Last())
	}
	return left, fv, found, right
}

// readValueAt reads a value of width w at offset off; w == 0 yields the
// zero value without touching c.
func readValueAt[V Value](c Chunk, off, w int) V {
	if w == 0 {
		var z V
		return z
	}
	return readValue[V](c[off:])
}

// UnionKV merges two chunks into a new chunk: one allocation (the result),
// no intermediate decode. For ids present in both, the stored value is
// merge(aVal, bVal); a nil merge keeps b's value (last-writer-wins with b
// as the newer side). Overlapping ranges dispatch to the open-coded
// per-codec kernels in unionfast.go; unionKVGeneric below is the reference
// implementation they are differential-tested against.
func UnionKV[V Value](codec Codec, a, b Chunk, merge func(av, bv V) V) Chunk {
	if a.Empty() {
		return b
	}
	if b.Empty() {
		return a
	}
	// Fast path: disjoint ranges concatenate payload bytes without decoding
	// a single element (values ride along byte-for-byte).
	if a.Last() < b.First() {
		return concatDisjoint(codec, a, b)
	}
	if b.Last() < a.First() {
		return concatDisjoint(codec, b, a)
	}
	switch codec {
	case Raw:
		return unionRawKV(a, b, merge)
	case Delta:
		return unionDeltaKV(a, b, merge)
	default:
		panic("encoding: unknown codec")
	}
}

// unionKVGeneric is the iterator-based streaming merge — the reference the
// specialized kernels must match byte for byte. It accepts any codec and
// stays the single implementation set-op correctness arguments are written
// against.
func unionKVGeneric[V Value](codec Codec, a, b Chunk, merge func(av, bv V) V) Chunk {
	if a.Empty() {
		return b
	}
	if b.Empty() {
		return a
	}
	if a.Last() < b.First() {
		return concatDisjoint(codec, a, b)
	}
	if b.Last() < a.First() {
		return concatDisjoint(codec, b, a)
	}
	ai, bi := NewIterKV[V](codec, a), NewIterKV[V](codec, b)
	out := NewBuilderKV[V](codec)
	defer out.Release()
	for ai.Valid() && bi.Valid() {
		av, bv := ai.Value(), bi.Value()
		switch {
		case av < bv:
			out.AppendKV(av, ai.Payload())
			ai.Next()
		case av > bv:
			out.AppendKV(bv, bi.Payload())
			bi.Next()
		default:
			v := bi.Payload()
			if merge != nil {
				v = merge(ai.Payload(), v)
			}
			out.AppendKV(av, v)
			ai.Next()
			bi.Next()
		}
	}
	ai.AppendRemaining(&out)
	bi.AppendRemaining(&out)
	return out.Chunk()
}

// DifferenceKV returns the (id, value) pairs of a whose ids are not present
// in b, as a streaming two-pointer merge.
func DifferenceKV[V Value](codec Codec, a, b Chunk) Chunk {
	if a.Empty() || b.Empty() {
		return a
	}
	if b.Last() < a.First() || b.First() > a.Last() {
		return a
	}
	ai, bi := NewIterKV[V](codec, a), NewIterKV[V](codec, b)
	out := NewBuilderKV[V](codec)
	defer out.Release()
	for ai.Valid() {
		av := ai.Value()
		for bi.Valid() && bi.Value() < av {
			bi.Next()
		}
		if !bi.Valid() {
			// b exhausted: the rest of a survives verbatim.
			ai.AppendRemaining(&out)
			break
		}
		if bi.Value() == av {
			ai.Next()
			continue
		}
		out.AppendKV(av, ai.Payload())
		ai.Next()
	}
	return out.Chunk()
}

// IntersectKV returns the pairs whose ids are common to a and b; the stored
// value is merge(aVal, bVal), or a's value when merge is nil.
func IntersectKV[V Value](codec Codec, a, b Chunk, merge func(av, bv V) V) Chunk {
	if a.Empty() || b.Empty() {
		return nil
	}
	if b.Last() < a.First() || b.First() > a.Last() {
		return nil
	}
	ai, bi := NewIterKV[V](codec, a), NewIterKV[V](codec, b)
	out := NewBuilderKV[V](codec)
	defer out.Release()
	for ai.Valid() && bi.Valid() {
		av, bv := ai.Value(), bi.Value()
		switch {
		case av < bv:
			ai.Next()
		case av > bv:
			bi.Next()
		default:
			v := ai.Payload()
			if merge != nil {
				v = merge(v, bi.Payload())
			}
			out.AppendKV(av, v)
			ai.Next()
			bi.Next()
		}
	}
	return out.Chunk()
}

// InsertKV returns a chunk with (x, v) added. When x is already present the
// chunk is returned unchanged unless overwrite is set, in which case the
// stored value is replaced. One streaming pass over pooled scratch.
func InsertKV[V Value](codec Codec, c Chunk, x uint32, v V, overwrite bool) Chunk {
	if c.Empty() {
		out := NewBuilderKV[V](codec)
		defer out.Release()
		out.AppendKV(x, v)
		return out.Chunk()
	}
	present := ContainsKV[V](codec, c, x)
	if present && !overwrite {
		return c
	}
	if !present && x > c.Last() {
		// Appending past the end is a disjoint concatenation of c and {x}.
		one := NewBuilderKV[V](codec)
		defer one.Release()
		one.AppendKV(x, v)
		return concatDisjoint(codec, c, one.Chunk())
	}
	out := NewBuilderKV[V](codec)
	defer out.Release()
	placed := false
	for it := NewIterKV[V](codec, c); it.Valid(); it.Next() {
		e := it.Value()
		if !placed && x <= e {
			out.AppendKV(x, v)
			placed = true
			if x == e {
				continue
			}
		}
		out.AppendKV(e, it.Payload())
	}
	if !placed {
		out.AppendKV(x, v)
	}
	return out.Chunk()
}

// RemoveKV returns a chunk with x removed (no-op if absent). One streaming
// pass over pooled scratch.
func RemoveKV[V Value](codec Codec, c Chunk, x uint32) Chunk {
	if c.Empty() || x < c.First() || x > c.Last() {
		return c
	}
	if !ContainsKV[V](codec, c, x) {
		return c
	}
	out := NewBuilderKV[V](codec)
	defer out.Release()
	for it := NewIterKV[V](codec, c); it.Valid(); it.Next() {
		if e := it.Value(); e != x {
			out.AppendKV(e, it.Payload())
		}
	}
	return out.Chunk()
}
