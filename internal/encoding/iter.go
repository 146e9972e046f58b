package encoding

import (
	"encoding/binary"
	"sync"
)

// This file implements the zero-allocation streaming layer of the chunk
// format: IterKV (an allocation-free cursor over an encoded chunk yielding
// (id, value) pairs), BuilderKV (an incremental encoder that assembles a
// chunk from a strictly-increasing element stream without materializing
// decoded slices), and the sync.Pool-backed scratch buffers shared by the
// set operations and the C-tree batch algorithms. Together they let
// Union/Difference/Intersect/Split run as streaming two-pointer merges:
// decode one element at a time from each input and append it straight into
// the output encoding, touching O(1) extra memory beyond the result chunk.
//
// Iter and Builder are the id-only (V = struct{}) instantiations kept for
// the unweighted API.

// IterKV is a streaming cursor over the (id, value) pairs of a chunk. It
// decodes one element at a time and performs no allocation; IterKV values
// are meant to live on the stack. The zero IterKV is exhausted.
type IterKV[V Value] struct {
	c   Chunk
	val V      // current element's payload, valid while rem > 0
	cur uint32 // current element's id, valid while rem > 0
	off int    // byte offset of the next element's encoding
	rem int    // elements not yet consumed, including cur
	raw bool   // codec == Raw
	w   uint8  // payload width in bytes (cached so Next stays inlinable)
}

// Iter is the id-only iterator of the unweighted API.
type Iter = IterKV[struct{}]

// NewIterKV returns an iterator positioned on the first element of c.
func NewIterKV[V Value](codec Codec, c Chunk) IterKV[V] {
	n := c.Count()
	if n == 0 {
		return IterKV[V]{}
	}
	w := valueWidth[V]()
	it := IterKV[V]{c: c, rem: n, raw: codec == Raw, w: uint8(w)}
	switch codec {
	case Raw:
		it.cur = binary.LittleEndian.Uint32(c[headerSize:])
		it.val = readValueAt[V](c, headerSize+4, w)
		it.off = headerSize + 4 + w
	case Delta:
		it.cur = c.First()
		it.val = readValueAt[V](c, headerSize, w)
		it.off = headerSize + w
	default:
		panic("encoding: unknown codec")
	}
	return it
}

// NewIter returns an id-only iterator positioned on the first element of c.
func NewIter(codec Codec, c Chunk) Iter { return NewIterKV[struct{}](codec, c) }

// Valid reports whether the iterator is positioned on an element.
func (it *IterKV[V]) Valid() bool { return it.rem > 0 }

// Value returns the current element's id. Only valid while Valid() is true.
func (it *IterKV[V]) Value() uint32 { return it.cur }

// Payload returns the current element's value. Only valid while Valid() is
// true.
func (it *IterKV[V]) Payload() V { return it.val }

// Next advances to the next element. Calling Next on the last element
// exhausts the iterator. The zero-width body is kept small enough to
// inline; payload-carrying instantiations and the multi-byte varint case
// (rare for dense neighbor ids) take the out-of-line slow paths.
func (it *IterKV[V]) Next() {
	it.rem--
	if it.rem <= 0 {
		return
	}
	if it.w == 0 && !it.raw {
		if d := it.c[it.off]; d < 0x80 {
			it.cur += uint32(d)
			it.off++
			return
		}
	}
	it.nextKV()
}

// nextKV is the out-of-line advance: Raw stride, payload bytes, and the
// multi-byte varint gap all land here.
func (it *IterKV[V]) nextKV() {
	w := int(it.w)
	if it.raw {
		it.cur = binary.LittleEndian.Uint32(it.c[it.off:])
		if w != 0 {
			it.val = readValue[V](it.c[it.off+4:])
		}
		it.off += 4 + w
		return
	}
	d, off := uvarint(it.c, it.off)
	it.cur += d
	if w != 0 {
		it.val = readValue[V](it.c[off:])
	}
	it.off = off + w
}

// AppendRemaining appends every not-yet-consumed element (including the
// current one, with its value) to b in bulk and exhausts the iterator.
// Because a chunk suffix starting at an element boundary is byte-copyable
// under both codecs (raw strides; delta gaps are position-independent and
// value bytes fixed-width), this is a memcpy rather than an element loop —
// the drain step of the streaming merges.
func (it *IterKV[V]) AppendRemaining(b *BuilderKV[V]) {
	if it.rem <= 0 {
		return
	}
	v := it.cur
	if b.n == 0 {
		b.first = v
	}
	if b.raw {
		*b.buf = binary.LittleEndian.AppendUint32(*b.buf, v)
	} else if b.n > 0 {
		*b.buf = putUvarint(*b.buf, v-b.last)
	}
	*b.buf = appendValue(*b.buf, it.val)
	*b.buf = append(*b.buf, it.c[it.off:]...)
	b.n += it.rem
	b.last = it.c.Last()
	it.rem = 0
}

// bytePool recycles payload scratch for Builder. Pointers are pooled (not
// slice headers) so Put does not allocate.
var bytePool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// BuilderKV incrementally encodes a strictly-increasing (id, value) stream
// into a chunk. Elements are appended directly in encoded form — no
// intermediate decoded slices — into a pooled scratch buffer; Chunk()
// copies the finished encoding into an exact-size immutable Chunk (the only
// allocation the caller pays). Release must be called once the builder is
// done.
type BuilderKV[V Value] struct {
	buf   *[]byte
	n     int
	first uint32
	last  uint32
	raw   bool
}

// Builder is the id-only builder of the unweighted API.
type Builder = BuilderKV[struct{}]

// NewBuilderKV returns a builder for the given codec backed by pooled
// scratch.
func NewBuilderKV[V Value](codec Codec) BuilderKV[V] {
	b := bytePool.Get().(*[]byte)
	var hdr [headerSize]byte
	*b = append((*b)[:0], hdr[:]...)
	return BuilderKV[V]{buf: b, raw: codec == Raw}
}

// NewBuilder returns an id-only builder for the given codec.
func NewBuilder(codec Codec) Builder { return NewBuilderKV[struct{}](codec) }

// AppendKV adds (x, v); x must exceed every id appended so far.
func (b *BuilderKV[V]) AppendKV(x uint32, v V) {
	if b.n == 0 {
		b.first = x
	}
	if b.raw {
		*b.buf = binary.LittleEndian.AppendUint32(*b.buf, x)
	} else if b.n > 0 {
		// Delta keeps the first element in the header only; the payload is
		// the gap stream.
		*b.buf = putUvarint(*b.buf, x-b.last)
	}
	*b.buf = appendValue(*b.buf, v)
	b.last = x
	b.n++
}

// Append adds x with the zero value of V; x must exceed every id appended
// so far.
func (b *BuilderKV[V]) Append(x uint32) {
	var z V
	b.AppendKV(x, z)
}

// Count returns the number of elements appended so far.
func (b *BuilderKV[V]) Count() int { return b.n }

// Chunk finalizes the encoding and returns it as an immutable Chunk. The
// builder may continue to be appended to afterwards (the returned chunk is
// a copy). An empty builder yields the nil chunk.
func (b *BuilderKV[V]) Chunk() Chunk {
	if b.n == 0 {
		return nil
	}
	s := *b.buf
	binary.LittleEndian.PutUint32(s[0:4], uint32(b.n))
	binary.LittleEndian.PutUint32(s[4:8], b.first)
	binary.LittleEndian.PutUint32(s[8:12], b.last)
	out := make(Chunk, len(s))
	copy(out, s)
	return out
}

// Release returns the builder's scratch to the pool. The builder must not
// be used afterwards.
func (b *BuilderKV[V]) Release() {
	if b.buf != nil {
		bytePool.Put(b.buf)
		b.buf = nil
	}
}

// concatDisjoint concatenates lo and hi, which must both be non-empty with
// lo.Last() < hi.First(), in O(bytes) with a single allocation and no
// decoding: the payloads are spliced byte-for-byte (for Delta, one varint
// bridges the gap between lo's last and hi's first element; hi's payload
// already begins with hi.First()'s value bytes, so values of any width ride
// along untouched).
func concatDisjoint(codec Codec, lo, hi Chunk) Chunk {
	n := lo.Count() + hi.Count()
	out := make(Chunk, 0, len(lo)+len(hi)+5)
	out = append(out, lo...)
	if codec == Delta {
		out = putUvarint(out, hi.First()-lo.Last())
	}
	out = append(out, hi[headerSize:]...)
	binary.LittleEndian.PutUint32(out[0:4], uint32(n))
	binary.LittleEndian.PutUint32(out[8:12], hi.Last())
	return out
}
