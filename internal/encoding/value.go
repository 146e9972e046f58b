package encoding

import "unsafe"

// This file defines the payload side of the generic chunk format: every
// element of a chunk may carry a fixed-width value V interleaved with its
// id. V = struct{} (width 0) degenerates to the id-only format, byte for
// byte — the unweighted wrappers in chunk.go are instantiations at struct{}.
//
// Values are stored as their in-memory byte image. That requires V to be a
// fixed-size, pointer-free type (float32, uint64, small structs of such):
// pointers smuggled into a byte slice would be invisible to the garbage
// collector. The Value constraint cannot express "pointer-free", so the
// requirement is documented here and in DESIGN.md; all instantiations in
// this repository are scalars.

// Value is the constraint on per-element chunk payloads: a fixed-width,
// pointer-free, comparable type. struct{} selects the zero-width (id-only)
// format.
type Value interface{ comparable }

// valueWidth returns the encoded width of V in bytes.
func valueWidth[V Value]() int {
	var v V
	return int(unsafe.Sizeof(v))
}

// appendValue appends v's byte image to dst. Byte-wise copies through a
// stack local keep every access aligned, so this is portable to strict-
// alignment targets.
func appendValue[V Value](dst []byte, v V) []byte {
	w := int(unsafe.Sizeof(v))
	if w == 0 {
		return dst
	}
	n := len(dst)
	if cap(dst)-n < w {
		dst = append(dst, make([]byte, w)...)
	} else {
		dst = dst[:n+w]
	}
	copy(dst[n:n+w], unsafe.Slice((*byte)(unsafe.Pointer(&v)), w))
	return dst
}

// readValue decodes a value from the start of src.
func readValue[V Value](src []byte) V {
	var v V
	w := int(unsafe.Sizeof(v))
	if w != 0 {
		copy(unsafe.Slice((*byte)(unsafe.Pointer(&v)), w), src[:w])
	}
	return v
}

// valAt returns vals[i], or the zero value when vals is nil (the calling
// convention that lets id-only callers pass nil instead of a slice of
// zeros).
func valAt[V Value](vals []V, i int) V {
	if vals == nil {
		var z V
		return z
	}
	return vals[i]
}
