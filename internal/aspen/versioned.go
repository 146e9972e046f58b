package aspen

import (
	"sync"
	"sync/atomic"
)

// Versioned maintains an evolving immutable value (a graph snapshot) as a
// sequence of versions, implementing the acquire / set / release interface
// of §6 generically: any purely-functional snapshot type works, and the
// repository instantiates it for both Graph and WeightedGraph. Any number
// of readers may acquire versions concurrently with a single writer; no
// reader or writer ever blocks another reader. Writers are serialized by an
// internal mutex, and every update becomes visible atomically, giving
// strict serializability: queries observe exactly the prefix of updates
// published before their acquire.
//
// Version lifetime follows the paper's epoch discipline: each version
// carries a reference count that starts at one (the store's own reference,
// dropped when the version is superseded) and is incremented per acquire.
// When the count of a superseded version drains to zero the version is
// *retired*: the store drops its snapshot reference and invokes the retire
// hook exactly once. In the paper, retirement feeds a parallel
// reference-counting collector over tree nodes; here the Go runtime GC
// reclaims the C-tree nodes the moment the retired version stops
// referencing them (the mechanism substitution documented in DESIGN.md),
// and the hook feeds live-version accounting and the stream engine's GC
// telemetry.
type Versioned[G any] struct {
	writer sync.Mutex
	cur    atomic.Pointer[Version[G]]
	stamp  atomic.Uint64

	// onRetire, if set, is called exactly once per version, after its last
	// reference is dropped and its snapshot reference cleared. It must not
	// be changed once readers or writers are running (set it right after
	// construction). Called from whichever goroutine drops the last
	// reference — keep it non-blocking.
	onRetire func(stamp uint64)

	live    atomic.Int64  // versions published and not yet retired
	retired atomic.Uint64 // versions fully drained
}

// Version is an acquired snapshot of a Versioned store. It stays valid
// until released; holding it never blocks updates. After the version is
// retired (last reference dropped) the Graph field is cleared so the
// runtime GC can reclaim the snapshot even if a stale handle leaks.
type Version[G any] struct {
	// Graph is the immutable snapshot.
	Graph G
	// Stamp is the version's sequence number (monotonically increasing).
	Stamp uint64

	vs   *Versioned[G]
	refs atomic.Int64
}

// NewVersioned wraps an initial snapshot as version 0.
func NewVersioned[G any](g G) *Versioned[G] {
	vs := &Versioned[G]{}
	v := &Version[G]{Graph: g, Stamp: 0, vs: vs}
	v.refs.Store(1) // the store's own reference to the current version
	vs.live.Store(1)
	vs.cur.Store(v)
	return vs
}

// SetRetireHook registers fn to run when a version is retired (its last
// reference dropped). Must be called before concurrent use begins.
func (vs *Versioned[G]) SetRetireHook(fn func(stamp uint64)) { vs.onRetire = fn }

// tryRef increments the reference count unless it has already drained to
// zero. A count at zero can never rise again, which is what makes the
// retire hook fire exactly once and makes acquiring a retired version
// impossible.
func (v *Version[G]) tryRef() bool {
	for {
		n := v.refs.Load()
		if n <= 0 {
			return false
		}
		if v.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// Acquire returns the current version, pinning it until Release. Lock-free:
// the reader retries only if the writer superseded the loaded version *and*
// its count drained in the window between the load and the increment, in
// which case a newer current version is already installed.
func (vs *Versioned[G]) Acquire() *Version[G] {
	for {
		v := vs.cur.Load()
		if v.tryRef() {
			return v
		}
	}
}

// Release drops a reference obtained from Acquire (or the store's own,
// internally) and reports whether this was the last reference — i.e. the
// version was retired by this call. Each acquired version must be released
// exactly once.
func (vs *Versioned[G]) Release(v *Version[G]) bool {
	if v.refs.Add(-1) != 0 {
		return false
	}
	// Last reference: retire. Only one goroutine can take the count to
	// zero, and tryRef never resurrects a drained count, so this path runs
	// exactly once per version. Clearing Graph drops the snapshot root so
	// the runtime GC can reclaim nodes unreachable from newer versions.
	var zero G
	v.Graph = zero
	vs.live.Add(-1)
	vs.retired.Add(1)
	if vs.onRetire != nil {
		vs.onRetire(v.Stamp)
	}
	return true
}

// publish installs g as the next version. Must be called with the writer
// lock held.
func (vs *Versioned[G]) publish(g G) *Version[G] {
	v := &Version[G]{Graph: g, Stamp: vs.stamp.Add(1), vs: vs}
	v.refs.Store(1)
	vs.live.Add(1)
	old := vs.cur.Swap(v)
	vs.Release(old) // drop the store's reference; retires old if unread
	return v
}

// Update applies fn to the latest snapshot and publishes the result,
// returning the new version's stamp. Writers are serialized; readers are
// unaffected.
func (vs *Versioned[G]) Update(fn func(G) G) uint64 {
	vs.writer.Lock()
	defer vs.writer.Unlock()
	cur := vs.cur.Load()
	v := vs.publish(fn(cur.Graph))
	return v.Stamp
}

// Current returns the latest published stamp without acquiring.
func (vs *Versioned[G]) Current() uint64 { return vs.cur.Load().Stamp }

// LiveVersions returns the number of versions published but not yet
// retired (always ≥ 1: the current version is live).
func (vs *Versioned[G]) LiveVersions() int64 { return vs.live.Load() }

// RetiredVersions returns the number of versions fully drained and
// retired since construction.
func (vs *Versioned[G]) RetiredVersions() uint64 { return vs.retired.Load() }
