// Package faults is the fault-injection toolkit behind the distributed
// layer's chaos tests: a failpoint registry consulted at named sites in
// production code (free when nothing is armed) and a Transport that
// wraps dialed net.Conns with scriptable drop / delay / duplicate /
// truncate / partition faults. Production code only ever calls Hit at
// a handful of named points; everything else lives in tests.
package faults

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// ErrInjected is the default error an armed failpoint returns.
var ErrInjected = errors.New("faults: injected failure")

// point is one armed failpoint: skip hits pass through first, then
// remaining hits fire (negative: forever).
type point struct {
	skip      int
	remaining int
	err       error
}

// Registry holds armed failpoints by name. The zero value is ready to
// use; Hit on an empty registry is one atomic load.
type Registry struct {
	armed  atomic.Int32
	mu     sync.Mutex
	points map[string]*point
}

// Default is the process-wide registry production call sites consult.
var Default = &Registry{}

// Set arms a failpoint: the first skip hits pass, the next times hits
// return err (ErrInjected when err is nil; times < 0 fires forever).
func (r *Registry) Set(name string, skip, times int, err error) {
	if err == nil {
		err = ErrInjected
	}
	r.mu.Lock()
	if r.points == nil {
		r.points = make(map[string]*point)
	}
	if _, exists := r.points[name]; !exists {
		r.armed.Add(1)
	}
	r.points[name] = &point{skip: skip, remaining: times, err: err}
	r.mu.Unlock()
}

// Clear disarms one failpoint.
func (r *Registry) Clear(name string) {
	r.mu.Lock()
	if _, exists := r.points[name]; exists {
		delete(r.points, name)
		r.armed.Add(-1)
	}
	r.mu.Unlock()
}

// ClearAll disarms everything.
func (r *Registry) ClearAll() {
	r.mu.Lock()
	r.armed.Add(-int32(len(r.points)))
	r.points = nil
	r.mu.Unlock()
}

// ArmedCount returns how many failpoints are currently armed — the
// observability layer's aspen_faults_armed gauge, so a scrape of a
// production process can prove no chaos hooks were left set. One
// atomic load.
func (r *Registry) ArmedCount() int { return int(r.armed.Load()) }

// RegisterMetrics exports ArmedCount into reg as the aspen_faults_armed
// gauge.
func (r *Registry) RegisterMetrics(reg *obs.Registry) {
	reg.GaugeFunc("aspen_faults_armed",
		"Failpoints currently armed in the process-global registry.",
		func() float64 { return float64(r.ArmedCount()) })
}

// Hit consults a named failpoint, returning its error when it fires.
// The unarmed fast path is a single atomic load.
func (r *Registry) Hit(name string) error {
	if r.armed.Load() == 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.points[name]
	if p == nil {
		return nil
	}
	if p.skip > 0 {
		p.skip--
		return nil
	}
	if p.remaining == 0 {
		return nil
	}
	if p.remaining > 0 {
		p.remaining--
	}
	return p.err
}

// Hit consults the Default registry.
func Hit(name string) error { return Default.Hit(name) }

// Set arms a failpoint on the Default registry.
func Set(name string, skip, times int, err error) { Default.Set(name, skip, times, err) }

// Clear disarms a Default-registry failpoint.
func Clear(name string) { Default.Clear(name) }

// Transport manufactures faulty connections for chaos tests: Dialer
// wraps a real dial function, and every connection it returns registers
// with the transport so partitions and kills reach live traffic, not
// just future dials. Write-level faults (drop / duplicate / truncate)
// act on whole flushes, which is exactly the granularity a bufio-backed
// rpc client writes frames at.
type Transport struct {
	mu          sync.Mutex
	conns       map[*faultConn]struct{}
	partitioned bool
	delay       time.Duration
	dropNext    int // swallow the write, kill the conn
	dupNext     int // write the bytes twice
	truncNext   int // write a prefix, kill the conn

	dials, drops, dups, truncs atomic.Uint64
}

// NewTransport returns an empty (fault-free) transport.
func NewTransport() *Transport {
	return &Transport{conns: make(map[*faultConn]struct{})}
}

// Dialer wraps inner so every dialed connection routes its writes
// through the transport's fault schedule. A nil inner uses
// net.DialTimeout.
func (t *Transport) Dialer(inner func(network, addr string, timeout time.Duration) (net.Conn, error)) func(network, addr string, timeout time.Duration) (net.Conn, error) {
	if inner == nil {
		inner = net.DialTimeout
	}
	return func(network, addr string, timeout time.Duration) (net.Conn, error) {
		t.mu.Lock()
		parted := t.partitioned
		t.mu.Unlock()
		if parted {
			return nil, errors.New("faults: partitioned")
		}
		nc, err := inner(network, addr, timeout)
		if err != nil {
			return nil, err
		}
		fc := &faultConn{Conn: nc, t: t}
		t.mu.Lock()
		if t.partitioned { // raced with Partition(true)
			t.mu.Unlock()
			nc.Close()
			return nil, errors.New("faults: partitioned")
		}
		t.conns[fc] = struct{}{}
		t.mu.Unlock()
		t.dials.Add(1)
		return fc, nil
	}
}

// Partition switches the partition on or off: while on, new dials are
// refused and every live connection is severed.
func (t *Transport) Partition(on bool) {
	t.mu.Lock()
	t.partitioned = on
	var victims []*faultConn
	if on {
		for fc := range t.conns {
			victims = append(victims, fc)
		}
	}
	t.mu.Unlock()
	for _, fc := range victims {
		fc.Conn.Close()
	}
}

// KillAll severs every live connection without blocking future dials —
// connection churn rather than a partition.
func (t *Transport) KillAll() {
	t.mu.Lock()
	victims := make([]*faultConn, 0, len(t.conns))
	for fc := range t.conns {
		victims = append(victims, fc)
	}
	t.mu.Unlock()
	for _, fc := range victims {
		fc.Conn.Close()
	}
}

// Delay makes every subsequent write sleep d first (0 clears).
func (t *Transport) Delay(d time.Duration) {
	t.mu.Lock()
	t.delay = d
	t.mu.Unlock()
}

// DropNext schedules the next n writes to be silently swallowed — the
// writer sees success, the peer sees the connection die. The lost-write
// shape of an ack that never arrives.
func (t *Transport) DropNext(n int) {
	t.mu.Lock()
	t.dropNext += n
	t.mu.Unlock()
}

// DuplicateNext schedules the next n writes to be sent twice — the
// double-delivery shape that exercises server-side dedup.
func (t *Transport) DuplicateNext(n int) {
	t.mu.Lock()
	t.dupNext += n
	t.mu.Unlock()
}

// TruncateNext schedules the next n writes to deliver only a prefix
// before the connection dies — a torn frame on the peer's wire.
func (t *Transport) TruncateNext(n int) {
	t.mu.Lock()
	t.truncNext += n
	t.mu.Unlock()
}

// ClearScheduled drops any not-yet-consumed one-shot write faults —
// the deterministic end of a test's fault phase.
func (t *Transport) ClearScheduled() {
	t.mu.Lock()
	t.dropNext, t.dupNext, t.truncNext = 0, 0, 0
	t.mu.Unlock()
}

// Stats returns (dials, drops, duplicates, truncations) so far.
func (t *Transport) Stats() (dials, drops, dups, truncs uint64) {
	return t.dials.Load(), t.drops.Load(), t.dups.Load(), t.truncs.Load()
}

type faultAction int

const (
	actPass faultAction = iota
	actDrop
	actDup
	actTrunc
)

// faultConn routes writes through the owning transport's schedule.
type faultConn struct {
	net.Conn
	t *Transport
}

func (c *faultConn) Write(p []byte) (int, error) {
	t := c.t
	t.mu.Lock()
	delay := t.delay
	act := actPass
	switch {
	case t.dropNext > 0:
		t.dropNext--
		act = actDrop
	case t.truncNext > 0:
		t.truncNext--
		act = actTrunc
	case t.dupNext > 0:
		t.dupNext--
		act = actDup
	}
	t.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	switch act {
	case actDrop:
		t.drops.Add(1)
		c.Conn.Close()
		// Report success: the writer believes the bytes went out, the
		// way a kernel buffer accepts a write the peer never sees.
		return len(p), nil
	case actTrunc:
		t.truncs.Add(1)
		c.Conn.Write(p[:len(p)/2])
		c.Conn.Close()
		return len(p), nil
	case actDup:
		t.dups.Add(1)
		if n, err := c.Conn.Write(p); err != nil {
			return n, err
		}
		c.Conn.Write(p) // best-effort second copy
		return len(p), nil
	default:
		return c.Conn.Write(p)
	}
}

func (c *faultConn) Close() error {
	c.t.mu.Lock()
	delete(c.t.conns, c)
	c.t.mu.Unlock()
	return c.Conn.Close()
}
