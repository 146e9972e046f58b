package parallel

import (
	"sync"
	"sync/atomic"
	"time"
)

// Gate gives one writer priority over the readers of the same data: the
// writer holds the gate across its critical work, and readers that reach a
// yield point (Wait) while it is held park until it is released, so the
// writer gets the cores back at the readers' next block boundary. The zero
// value is an open gate; a nil *Gate is always open.
//
// Fairness, with no constant: Hold declines when less time has passed
// since the last Release than that last hold lasted. Under back-to-back
// writes the readers therefore keep at least half the wall time.
type Gate struct {
	held atomic.Bool
	rw   sync.RWMutex // write-locked while held; parked readers queue on it

	// Writer-only state: the single writer reads and writes these.
	since    time.Time        // when the current hold began
	last     time.Duration    // how long the last hold lasted
	released time.Time        // when the last hold ended
	now      func() time.Time // nil: time.Now (tests install a fake clock)

	holds, declined atomic.Uint64
	waited          atomic.Int64 // nanoseconds readers spent parked
}

func (g *Gate) clock() time.Time {
	if g.now != nil {
		return g.now()
	}
	return time.Now()
}

// Hold closes the gate unless the alternation rule declines, and reports
// whether it did; call Release after a Hold that returned true. Only one
// goroutine, the writer, may call Hold and Release.
func (g *Gate) Hold() bool {
	t := g.clock()
	if t.Sub(g.released) < g.last {
		g.declined.Add(1)
		return false
	}
	g.since = t
	g.held.Store(true)
	g.rw.Lock()
	g.holds.Add(1)
	return true
}

// Release opens a gate Hold closed and wakes every parked reader.
func (g *Gate) Release() {
	g.held.Store(false)
	g.rw.Unlock()
	t := g.clock()
	g.last, g.released = t.Sub(g.since), t
}

// Wait returns at once when the gate is open (one atomic load, inlined
// into the caller) and parks the caller until Release while it is held. It
// is the readers' yield point; only its parked path is timed.
func (g *Gate) Wait() {
	if g != nil && g.held.Load() {
		g.park()
	}
}

func (g *Gate) park() {
	t := time.Now()
	g.rw.RLock()
	g.rw.RUnlock()
	g.waited.Add(int64(time.Since(t)))
}

// Holds is the number of holds the gate granted.
func (g *Gate) Holds() uint64 { return g.holds.Load() }

// Declined is the number of holds the alternation rule declined.
func (g *Gate) Declined() uint64 { return g.declined.Load() }

// Waited is the total time readers spent parked in Wait.
func (g *Gate) Waited() time.Duration { return time.Duration(g.waited.Load()) }
