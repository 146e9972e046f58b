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
// sequentially in the calling goroutine.
func ForGrain(n, grain int, f func(i int)) {
	if n <= 0 {
		return
	}
	p := Procs
	if grain < 1 {
		grain = 1
	}
	if p <= 1 || n <= grain {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	// Dynamic chunk assignment: workers claim blocks with an atomic cursor,
	// which balances irregular per-element work (e.g. skewed vertex degrees).
	blocks := (n + grain - 1) / grain
	if p > blocks {
		p = blocks
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(p)
	for w := 0; w < p; w++ {
		go func() {
			defer wg.Done()
			for {
				b := int(cursor.Add(1)) - 1
				if b >= blocks {
					return
				}
				lo := b * grain
				hi := lo + grain
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					f(i)
				}
			}
		}()
	}
	wg.Wait()
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
	p := Procs
	if p <= 1 || n <= grain {
		f(0, n)
		return
	}
	blocks := (n + grain - 1) / grain
	if p > blocks {
		p = blocks
	}
	// One shared state object and one worker closure, and the caller works
	// too: a Range call costs two heap objects and p-1 spawns.
	var st struct {
		cursor atomic.Int64
		wg     sync.WaitGroup
	}
	worker := func() {
		defer st.wg.Done()
		for {
			b := int(st.cursor.Add(1)) - 1
			if b >= blocks {
				return
			}
			lo := b * grain
			f(lo, min(lo+grain, n))
		}
	}
	st.wg.Add(p)
	for w := 1; w < p; w++ {
		go worker()
	}
	worker()
	st.wg.Wait()
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
	var wg sync.WaitGroup
	wg.Add(len(fs) - 1)
	for _, f := range fs[1:] {
		go func(f func()) {
			defer wg.Done()
			f()
		}(f)
	}
	fs[0]()
	wg.Wait()
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
