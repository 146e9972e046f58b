package encoding

import "encoding/binary"

// This file holds the specialized chunk-union kernels behind UnionKV, the
// innermost loop of every batch insert. The generic streaming merge
// (unionKVGeneric in kv.go) pays an out-of-line IterKV.Next/Builder.AppendKV
// call per element; these kernels open-code the same two-pointer merge
// against the byte layout directly:
//
//   - Raw–Raw (unionRawKV): elements are fixed-stride words, so every
//     maximal run of one side that falls strictly below the other side's
//     next element is located by binary search and copied word-wise with
//     one memmove — per-element work only remains on genuinely interleaved
//     ranges, and the disjoint-at-the-Raw-level case degenerates to two
//     block copies.
//   - Delta–Delta (unionDeltaKV): the hottest merge loop of the batch-update
//     path (every MultiInsert tail union lands here under the default
//     params). Gap decoding, payload copy and output encoding are inlined
//     into one loop with no iterator or builder method calls. Every output
//     gap is re-encoded, including those whose predecessor is unchanged: a
//     variant that copies such runs as bytes was prototyped (PR 17), passes
//     the same differential and fuzz suites and moves a 1 000-edge apply by
//     less than 1 %, so it is not here.
//
// The generic path remains the reference implementation: differential and
// fuzz tests (TestUnionFastMatchesGeneric, FuzzStreamingSetOps) hold the
// kernels byte-for-byte equal to it.

// unionRawKV merges two non-empty, range-overlapping Raw chunks.
func unionRawKV[V Value](a, b Chunk, merge func(av, bv V) V) Chunk {
	w := valueWidth[V]()
	stride := 4 + w
	an, bn := a.Count(), b.Count()
	out := make(Chunk, headerSize, len(a)+len(b)-headerSize)
	n := 0
	var last uint32
	ai, bi := 0, 0
	for ai < an && bi < bn {
		av := binary.LittleEndian.Uint32(a[headerSize+stride*ai:])
		bv := binary.LittleEndian.Uint32(b[headerSize+stride*bi:])
		switch {
		case av < bv:
			// Copy a's entire run below bv word-wise.
			j := rawLowerBound(a, stride, ai+1, an, bv)
			out = append(out, a[headerSize+stride*ai:headerSize+stride*j]...)
			n += j - ai
			last = binary.LittleEndian.Uint32(a[headerSize+stride*(j-1):])
			ai = j
		case bv < av:
			j := rawLowerBound(b, stride, bi+1, bn, av)
			out = append(out, b[headerSize+stride*bi:headerSize+stride*j]...)
			n += j - bi
			last = binary.LittleEndian.Uint32(b[headerSize+stride*(j-1):])
			bi = j
		default:
			out = binary.LittleEndian.AppendUint32(out, av)
			if w != 0 {
				if merge != nil {
					out = appendValue(out, merge(
						readValue[V](a[headerSize+stride*ai+4:]),
						readValue[V](b[headerSize+stride*bi+4:])))
				} else {
					out = append(out, b[headerSize+stride*bi+4:headerSize+stride*(bi+1)]...)
				}
			}
			n++
			last = av
			ai++
			bi++
		}
	}
	if ai < an {
		out = append(out, a[headerSize+stride*ai:]...)
		n += an - ai
		last = a.Last()
	} else if bi < bn {
		out = append(out, b[headerSize+stride*bi:]...)
		n += bn - bi
		last = b.Last()
	}
	binary.LittleEndian.PutUint32(out[0:4], uint32(n))
	binary.LittleEndian.PutUint32(out[4:8], min(a.First(), b.First()))
	binary.LittleEndian.PutUint32(out[8:12], last)
	return out
}

// rawLowerBound returns the first index in [lo, hi) whose element is >= key.
func rawLowerBound(c Chunk, stride, lo, hi int, key uint32) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if binary.LittleEndian.Uint32(c[headerSize+stride*mid:]) < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// deltaCursor is the open-coded iteration state of one Delta input: the
// current element's id, the offset of its value bytes, and the offset of
// the gap code that follows them.
type deltaCursor struct {
	cur    uint32
	valOff int
	rem    int
}

// advance moves to the next element (rem must be > 1 before the call).
func (d *deltaCursor) advance(c Chunk, w int) {
	g, off := uvarint(c, d.valOff+w)
	d.cur += g
	d.valOff = off
	d.rem--
}

// unionDeltaKV merges two non-empty, range-overlapping Delta chunks.
func unionDeltaKV[V Value](a, b Chunk, merge func(av, bv V) V) Chunk {
	w := valueWidth[V]()
	buf := bytePool.Get().(*[]byte)
	defer bytePool.Put(buf)
	var hdr [headerSize]byte
	out := append((*buf)[:0], hdr[:]...)

	ac := deltaCursor{cur: a.First(), valOff: headerSize, rem: a.Count()}
	bc := deltaCursor{cur: b.First(), valOff: headerSize, rem: b.Count()}
	n := 0
	var first, last uint32
	// emit appends one element (id gap + value bytes copied from src at
	// valOff) to the output encoding.
	emit := func(id uint32, src Chunk, valOff int) {
		if n == 0 {
			first = id
		} else {
			out = putUvarint(out, id-last)
		}
		if w != 0 {
			out = append(out, src[valOff:valOff+w]...)
		}
		last = id
		n++
	}
	for ac.rem > 0 && bc.rem > 0 {
		switch {
		case ac.cur < bc.cur:
			emit(ac.cur, a, ac.valOff)
			if ac.rem == 1 {
				ac.rem = 0
			} else {
				ac.advance(a, w)
			}
		case bc.cur < ac.cur:
			emit(bc.cur, b, bc.valOff)
			if bc.rem == 1 {
				bc.rem = 0
			} else {
				bc.advance(b, w)
			}
		default:
			id := ac.cur
			if n == 0 {
				first = id
			} else {
				out = putUvarint(out, id-last)
			}
			if w != 0 {
				if merge != nil {
					out = appendValue(out, merge(readValue[V](a[ac.valOff:]), readValue[V](b[bc.valOff:])))
				} else {
					out = append(out, b[bc.valOff:bc.valOff+w]...)
				}
			}
			last = id
			n++
			if ac.rem == 1 {
				ac.rem = 0
			} else {
				ac.advance(a, w)
			}
			if bc.rem == 1 {
				bc.rem = 0
			} else {
				bc.advance(b, w)
			}
		}
	}
	// Drain: a chunk suffix starting at an element boundary is byte-copyable
	// (gaps are position-independent, value bytes fixed-width), so the
	// remainder is one bridging gap plus a memcpy.
	drain := func(c Chunk, dc *deltaCursor, clast uint32) {
		if dc.rem <= 0 {
			return
		}
		if n == 0 {
			first = dc.cur
		} else {
			out = putUvarint(out, dc.cur-last)
		}
		// The current element's value bytes sit at valOff and the rest of
		// the encoding follows them contiguously: one copy drains both.
		out = append(out, c[dc.valOff:]...)
		n += dc.rem
		last = clast
		dc.rem = 0
	}
	drain(a, &ac, a.Last())
	drain(b, &bc, b.Last())

	binary.LittleEndian.PutUint32(out[0:4], uint32(n))
	binary.LittleEndian.PutUint32(out[4:8], first)
	binary.LittleEndian.PutUint32(out[8:12], last)
	res := make(Chunk, len(out))
	copy(res, out)
	*buf = out[:0]
	return res
}
