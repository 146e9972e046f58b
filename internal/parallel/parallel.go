// Package parallel provides the fork-join primitives used by the tree and
// graph code: parallel loops with grain control, reductions, prefix sums
// (scan), filters and a parallel sort. They mirror the work-depth primitives
// the paper assumes (appendix §10.1) on top of goroutines.
//
// All primitives fall back to sequential execution below a grain size, so the
// 1-thread configurations used in the scalability experiments run without
// scheduling overhead (set Procs to 1 or call the *Seq variants).
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Procs is the degree of parallelism used by the primitives in this package.
// It defaults to GOMAXPROCS and may be lowered (e.g. to 1) by benchmarks that
// measure single-threaded running time.
var Procs = runtime.GOMAXPROCS(0)

// defaultGrain is the smallest amount of work a goroutine is handed.
const defaultGrain = 1024

// For runs f(i) for every i in [0, n) in parallel, in unspecified order.
func For(n int, f func(i int)) {
	ForGrain(n, defaultGrain, f)
}

// ForGrain is For with an explicit grain: ranges smaller than grain run
// sequentially in the calling goroutine. Blocks of grain indices are
// claimed one at a time (claim), which balances irregular per-element work
// such as skewed vertex degrees.
func ForGrain(n, grain int, f func(i int)) {
	if Procs <= 1 || n <= grain {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	Range(n, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			f(i)
		}
	})
}

// Range runs f(lo, hi) over a partition of [0, n) into contiguous blocks, one
// call per block. It is the bulk variant of For for callers that want to
// amortize per-element overhead themselves.
func Range(n, grain int, f func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	if Procs <= 1 || n <= grain {
		f(0, n)
		return
	}
	claim(n, grain, goHelper, f)
}

// Do runs the given thunks, possibly in parallel, and waits for all of them.
// It is the binary/fork-join primitive used by the tree algorithms.
func Do(fs ...func()) {
	if Procs <= 1 || len(fs) <= 1 {
		for _, f := range fs {
			f()
		}
		return
	}
	claim(len(fs), 1, goHelper, func(lo, hi int) {
		for _, f := range fs[lo:hi] {
			f()
		}
	})
}

// goHelper starts a helper goroutine.
func goHelper(help func()) { go help() }

// claim is the package's one join: it runs block(lo, hi) over the blocks of
// grain indices that partition [0, n), on the caller and on up to Procs-1
// helpers, which spawn starts. Each worker claims the next unclaimed block
// from a shared cursor until none is left, and the caller is one of them,
// so it never waits for a helper that has not started: a helper that starts
// after the last claim finds nothing and exits. The caller returns once
// every block has run, waiting only for the blocks helpers claimed and are
// still running. A call costs two heap objects, the shared state and the
// helper closure, and min(blocks, Procs)-1 spawns.
func claim(n, grain int, spawn func(help func()), block func(lo, hi int)) {
	blocks := (n + grain - 1) / grain
	p := min(Procs, blocks)
	if p <= 1 {
		block(0, n)
		return
	}
	j := &claimJoin{n: n, grain: grain, blocks: int64(blocks), block: block}
	j.left.Store(j.blocks)
	j.done.Lock()
	help := func() { j.work(true) }
	for range p - 1 {
		spawn(help)
	}
	j.work(false)
	if j.left.Load() != 0 {
		j.done.Lock()
	}
}

// claimJoin is the state one claim call shares with its helpers.
type claimJoin struct {
	next, left atomic.Int64 // the next block to claim; blocks not yet run
	// done is held from the start and unlocked by the helper that finishes
	// the last block; when the caller finishes it, nothing unlocks done.
	done     sync.Mutex
	n, grain int
	blocks   int64
	block    func(lo, hi int)
}

// work claims and runs blocks until none is left, then counts the blocks it
// ran off left in one step, so a block costs one shared atomic, its claim.
func (j *claimJoin) work(helper bool) {
	ran := int64(0)
	for {
		b := j.next.Add(1) - 1
		if b >= j.blocks {
			break
		}
		lo := int(b) * j.grain
		j.block(lo, min(lo+j.grain, j.n))
		ran++
	}
	if ran > 0 && j.left.Add(-ran) == 0 && helper {
		j.done.Unlock()
	}
}

// ScanExclusive replaces a with its exclusive prefix sums and returns the
// total. Runs in O(n) work and O(log n) depth for large inputs.
func ScanExclusive(a []uint64) uint64 {
	n := len(a)
	if n == 0 {
		return 0
	}
	if Procs <= 1 || n <= 2*defaultGrain {
		var acc uint64
		for i := 0; i < n; i++ {
			v := a[i]
			a[i] = acc
			acc += v
		}
		return acc
	}
	nb := Procs * 4
	if nb > n {
		nb = n
	}
	sz := (n + nb - 1) / nb
	sums := make([]uint64, nb)
	ForGrain(nb, 1, func(b int) {
		lo, hi := b*sz, (b+1)*sz
		if hi > n {
			hi = n
		}
		var acc uint64
		for i := lo; i < hi; i++ {
			acc += a[i]
		}
		sums[b] = acc
	})
	var acc uint64
	for b := 0; b < nb; b++ {
		v := sums[b]
		sums[b] = acc
		acc += v
	}
	total := acc
	ForGrain(nb, 1, func(b int) {
		lo, hi := b*sz, (b+1)*sz
		if hi > n {
			hi = n
		}
		acc := sums[b]
		for i := lo; i < hi; i++ {
			v := a[i]
			a[i] = acc
			acc += v
		}
	})
	return total
}

// FilterUint32 returns the elements of a satisfying keep, preserving order.
func FilterUint32(a []uint32, keep func(x uint32) bool) []uint32 {
	n := len(a)
	if n == 0 {
		return nil
	}
	if Procs <= 1 || n <= 2*defaultGrain {
		out := make([]uint32, 0, n)
		for _, x := range a {
			if keep(x) {
				out = append(out, x)
			}
		}
		return out
	}
	flags := make([]uint64, n)
	For(n, func(i int) {
		if keep(a[i]) {
			flags[i] = 1
		}
	})
	total := ScanExclusive(flags)
	out := make([]uint32, total)
	For(n, func(i int) {
		if keep(a[i]) {
			out[flags[i]] = a[i]
		}
	})
	return out
}

// PackIndices returns the indices i in [0, n) for which keep(i) is true, in
// increasing order. Large inputs are packed in two passes — count the kept
// indices of each block, then write each block's at its offset — so the only
// scratch is one counter per block; keep is called twice per index and must
// be pure.
func PackIndices(n int, keep func(i int) bool) []uint32 {
	if n == 0 {
		return nil
	}
	if Procs <= 1 || n <= 2*defaultGrain {
		var out []uint32
		for i := 0; i < n; i++ {
			if keep(i) {
				out = append(out, uint32(i))
			}
		}
		return out
	}
	const grain = 4 * defaultGrain
	offs := make([]int, (n+grain-1)/grain)
	Range(n, grain, func(lo, hi int) {
		c := 0
		for i := lo; i < hi; i++ {
			if keep(i) {
				c++
			}
		}
		offs[lo/grain] = c
	})
	total := 0
	for b, c := range offs {
		offs[b], total = total, total+c
	}
	out := make([]uint32, total)
	Range(n, grain, func(lo, hi int) {
		w := offs[lo/grain]
		for i := lo; i < hi; i++ {
			if keep(i) {
				out[w] = uint32(i)
				w++
			}
		}
	})
	return out
}
