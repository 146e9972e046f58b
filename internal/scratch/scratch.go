// Package scratch states the one retention rule for long-lived buffers on
// the commit and wire paths (WAL frame, RPC encoder and reader, delta and
// diff scratch): a buffer may keep at most Keep bytes between uses; above
// that it is one-shot and is released as soon as its contents are consumed.
// DESIGN.md "Scratch retention" has the measured traffic that sets Keep.
package scratch

import "unsafe"

// Keep is the most a scratch buffer may retain between uses. The largest
// steady-state record or frame on any ledger workload is 256 KB; only the
// preload submit and reads from the empty version exceed 1 MiB.
const Keep = 1 << 20

// Trim returns b emptied for reuse, or nil when holding on to its backing
// array would retain more than Keep.
func Trim[T any](b []T) []T {
	var t T
	if uintptr(cap(b))*unsafe.Sizeof(t) > Keep {
		return nil
	}
	return b[:0]
}

// Cap is the capacity to allocate for a byte buffer that must hold need
// bytes: half again as much for one that will be kept, so that a slowly
// growing message does not reallocate every time, but never growth that
// would push a keepable buffer over Keep, and exactly need for a one-shot.
func Cap(need int) int {
	if need >= Keep {
		return need
	}
	return min(need+need/2, Keep)
}
