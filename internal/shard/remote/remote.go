// Package remote puts the sharded serving layer on the network: a
// Server hosts one durable stream.Engine per process (cmd/shardd) and
// a client-side Cluster speaks the internal/rpc frame protocol to
// present the same facade as the in-process shard.Cluster — batches
// are routed with the same zero-copy shard.Route, reads pin a version
// vector of per-shard commit stamps, and flat views are stitched with
// the same shard.Stitch from per-shard views kept current over the wire
// (a moved shard is read as the edge diff against the view already held
// and patched; the diff from the empty version is the fallback), so
// every algos kernel runs unmodified against a cluster of processes.
//
// Consistency model. Each pinned stamp is a committed prefix of its
// shard's serialized history, exactly as in-process; a Barrier with
// writers quiet makes the pinned vector the exact global graph. Read
// replicas are fed by WAL tail shipping (every committed record
// streams to subscribers before it is acknowledged) and serve reads
// addressed by WAL sequence number: a replica read returns a committed
// prefix at least as fresh as the pinned stamp, and a replica that
// lags the pin watermark refuses (rpc.FlagLagging) so the client falls
// back to the primary. Exact-vector reads therefore always have the
// primary path; replicas trade bounded staleness-above-the-pin for
// query fan-out.
//
// Failure model. Submits are exactly-once across retries: each batch
// carries a (clientID, clientSeq) note, the server journals it with
// the commit, and a retried duplicate is acked from the dedup window
// (rpc.FlagDeduped) instead of re-applied. Connections carry per-verb
// deadlines enforced by a watchdog, redials back off exponentially
// with jitter, and a per-endpoint circuit breaker fails fast while an
// endpoint is down. Reads degrade gracefully: primary → replica →
// promoted replica → bounded-staleness cached views (Options.
// MaxStaleness), with every transition counted in Stats.
package remote

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rpc"
)

// ErrLagging is wrapped by replica read errors that mean "behind the
// requested sequence"; the client falls back to the primary.
var ErrLagging = errors.New("remote: replica lagging")

// ErrUnavailable is returned without touching the network while an
// endpoint's circuit breaker is open.
var ErrUnavailable = errors.New("remote: endpoint unavailable (breaker open)")

// errGenMoved is returned, without touching the network, by an operation
// pinned to a connection generation that is no longer the live one.
var errGenMoved = errors.New("connection superseded")

// ServerError is a remote-side failure relayed over an error frame.
type ServerError struct{ Msg string }

func (e *ServerError) Error() string { return "remote: server: " + e.Msg }

// netCounters aggregates the resilience counters one Cluster's
// connections share; surfaced through Stats.
type netCounters struct {
	retries          atomic.Uint64 // submit frames retransmitted
	dedupAcks        atomic.Uint64 // acks answered from the server dedup window
	breakerOpens     atomic.Uint64 // endpoint transitions to down
	breakerFastFails atomic.Uint64 // operations refused while a breaker was open
	suspects         atomic.Uint64 // endpoint transitions healthy→suspect
	timeouts         atomic.Uint64 // RPC deadlines that closed a connection
	failovers        atomic.Uint64 // submit streams redirected to a promoted replica
	promotions       atomic.Uint64 // replica promotions observed by the health prober
	degradedPins     atomic.Uint64 // Begin pins served by a replica with the primary down
	staleReads       atomic.Uint64 // Begin pins served from bounded-stale cached views
	probes           atomic.Uint64 // health probes issued
}

// Endpoint health states (Conn.epState).
const (
	epHealthy uint32 = iota
	epSuspect        // recent failures below the breaker threshold
	epDown           // breaker open: fail fast until cooldown expires
)

// call is one in-flight request. onBody (if set) parses the success
// response on the reader goroutine; onDone (if set) runs after the
// outcome is known — both must be quick and non-blocking. done is
// buffered so the reader never blocks delivering the outcome. deadline
// (unixnano, 0=none) is enforced by the connection watchdog. rec, when
// set, routes the outcome through the retry sender first.
type call struct {
	done     chan error
	onBody   func(flags uint8, d *rpc.Body) error
	onDone   func(err error)
	deadline int64
	rec      *sendRec
}

var callPool = sync.Pool{New: func() any {
	return &call{done: make(chan error, 1)}
}}

// Conn is one multiplexed client connection to a shard server.
// Requests are pipelined: the writer is serialized under mu, responses
// are matched to calls by request id on a single reader goroutine, and
// submit acks arrive whenever the remote commit completes. A broken
// connection fails every in-flight call and redials on next use,
// subject to the endpoint's circuit breaker.
type Conn struct {
	addr  string
	hello helloInfo
	opts  Options
	nstat *netCounters

	mu    sync.Mutex // dial state + frame writer
	nc    net.Conn
	bw    *bufio.Writer
	enc   rpc.Encoder
	gen   uint64 // generation of the live connection (globally unique per dial)
	wstop chan struct{}

	// Breaker state, under mu except epState (read lock-free).
	epState   atomic.Uint32
	failures  int // consecutive dial/handshake failures
	opens     int // consecutive breaker opens (cooldown doubling)
	openUntil time.Time
	everUp    bool // endpoint has handshaked at least once

	pmu     sync.Mutex
	pending map[uint64]*call
	pgen    uint64 // generation the pending map belongs to
	nextID  uint64
}

// Server roles confirmed in the Hello exchange.
const (
	rolePrimary  uint8 = 0
	roleReplica  uint8 = 1
	rolePromoted uint8 = 2 // replica that assumed primary duty after sustained primary loss
)

// helloInfo is the identity the client expects the server to confirm.
type helloInfo struct {
	shard    int
	shards   int
	weighted bool
	width    int
	role     uint8 // rolePrimary, roleReplica (rolePromoted accepted too)
}

func newConn(addr string, hi helloInfo, opts Options, nstat *netCounters) *Conn {
	if nstat == nil {
		nstat = &netCounters{}
	}
	return &Conn{addr: addr, hello: hi, opts: opts, nstat: nstat, pending: make(map[uint64]*call)}
}

// state reports the endpoint's breaker state (epHealthy/epSuspect/epDown).
func (c *Conn) state() uint32 { return c.epState.Load() }

// noteFailLocked records a failed dial or handshake. mu held.
func (c *Conn) noteFailLocked() {
	c.failures++
	if c.failures < c.opts.BreakerThreshold {
		if c.epState.CompareAndSwap(epHealthy, epSuspect) {
			c.nstat.suspects.Add(1)
		}
		return
	}
	cool := c.opts.BreakerCooldown << uint(min(c.opens, 5))
	if maxCool := 20 * c.opts.BreakerCooldown; cool > maxCool {
		cool = maxCool
	}
	c.opens++
	c.openUntil = time.Now().Add(cool)
	c.epState.Store(epDown)
	c.nstat.breakerOpens.Add(1) // counts re-opens after failed half-open probes too
}

// noteOKLocked records a successful handshake. mu held.
func (c *Conn) noteOKLocked() {
	c.failures, c.opens = 0, 0
	c.openUntil = time.Time{}
	c.everUp = true
	c.epState.Store(epHealthy)
}

// ensureLocked dials and handshakes if the connection is down. Called
// with mu held. First contact retries the dial for up to DialWait so
// cluster processes may come up in any order; after that, redials are
// single attempts gated by the circuit breaker (one half-open probe
// per cooldown while down).
func (c *Conn) ensureLocked() error {
	if c.nc != nil {
		return nil
	}
	if c.epState.Load() == epDown && time.Now().Before(c.openUntil) {
		c.nstat.breakerFastFails.Add(1)
		return fmt.Errorf("%w: %s", ErrUnavailable, c.addr)
	}
	var nc net.Conn
	var err error
	if c.everUp {
		nc, err = c.opts.Dialer("tcp", c.addr, c.opts.DialTimeout)
	} else {
		deadline := time.Now().Add(c.opts.DialWait)
		for {
			nc, err = c.opts.Dialer("tcp", c.addr, c.opts.DialTimeout)
			if err == nil || time.Now().After(deadline) {
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	if err != nil {
		c.noteFailLocked()
		return fmt.Errorf("remote: dial %s: %w", c.addr, err)
	}
	bw := bufio.NewWriterSize(nc, 1<<16)
	if err := handshake(nc, bw, c.hello); err != nil {
		nc.Close()
		c.noteFailLocked()
		return fmt.Errorf("remote: handshake %s: %w", c.addr, err)
	}
	c.noteOKLocked()
	c.nc, c.bw = nc, bw
	c.gen = connGenCtr.Add(1)
	c.wstop = make(chan struct{})
	c.pmu.Lock()
	c.pending = make(map[uint64]*call)
	c.pgen = c.gen
	c.pmu.Unlock()
	go c.readLoop(nc, c.gen)
	go c.watchdog(nc, c.wstop)
	return nil
}

// handshake performs the Hello exchange synchronously on a fresh
// connection, before the reader goroutine exists.
func handshake(nc net.Conn, bw *bufio.Writer, hi helloInfo) error {
	var enc rpc.Encoder
	enc.Begin(rpc.VerbHello, 0, 0)
	enc.U32(rpc.ProtoVersion)
	enc.U32(uint32(hi.shard))
	enc.U32(uint32(hi.shards))
	if hi.weighted {
		enc.U8(1)
	} else {
		enc.U8(0)
	}
	f, err := enc.Finish()
	if err != nil {
		return err
	}
	if err := nc.SetWriteDeadline(time.Now().Add(writeTimeout)); err != nil {
		return err
	}
	if _, err := bw.Write(f); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := nc.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		return err
	}
	m, err := rpc.NewReader(nc).Next()
	if err != nil {
		return err
	}
	if err := nc.SetReadDeadline(time.Time{}); err != nil {
		return err
	}
	if m.Flags&rpc.FlagErr != 0 {
		return &ServerError{Msg: string(m.Body)}
	}
	d := rpc.NewBody(m.Body)
	proto := d.U32()
	shard := int(d.U32())
	shards := int(d.U32())
	weighted := d.U8() != 0
	role := d.U8()
	width := int(d.U8())
	if err := d.Err(); err != nil {
		return err
	}
	if proto != rpc.ProtoVersion {
		return fmt.Errorf("protocol version %d, want %d", proto, rpc.ProtoVersion)
	}
	if shard != hi.shard || shards != hi.shards {
		return fmt.Errorf("server is shard %d/%d, want %d/%d", shard, shards, hi.shard, hi.shards)
	}
	if weighted != hi.weighted {
		return fmt.Errorf("server weighted=%v, client weighted=%v", weighted, hi.weighted)
	}
	// A replica endpoint may have promoted itself to an accepting
	// primary since we last spoke; that is still a valid peer.
	if role != hi.role && !(hi.role == roleReplica && role == rolePromoted) {
		return fmt.Errorf("server role %d, want %d", role, hi.role)
	}
	if width != hi.width {
		return fmt.Errorf("server edge width %d, want %d", width, hi.width)
	}
	return nil
}

// watchdog enforces per-call deadlines for one connection generation:
// when any in-flight call is past its deadline the transport is closed,
// which fails the generation through the usual reader path. It exits
// when the generation is torn down.
func (c *Conn) watchdog(nc net.Conn, stop chan struct{}) {
	tick := c.opts.RPCDeadline / 4
	if tick <= 0 {
		tick = 100 * time.Millisecond
	}
	tick = max(10*time.Millisecond, min(tick, 500*time.Millisecond))
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		now := time.Now().UnixNano()
		expired := false
		c.pmu.Lock()
		for _, ca := range c.pending {
			if ca.deadline != 0 && now > ca.deadline {
				expired = true
				break
			}
		}
		c.pmu.Unlock()
		if expired {
			c.nstat.timeouts.Add(1)
			nc.Close()
			return
		}
	}
}

// readLoop matches response frames to in-flight calls until the
// connection dies, then fails everything outstanding.
func (c *Conn) readLoop(nc net.Conn, gen uint64) {
	r := rpc.NewReader(bufio.NewReaderSize(nc, 1<<16))
	for {
		m, err := r.Next()
		if err != nil {
			c.fail(nc, gen, err)
			return
		}
		if m.Flags&rpc.FlagResp == 0 {
			c.fail(nc, gen, fmt.Errorf("remote: unexpected push frame verb %d", m.Verb))
			return
		}
		c.pmu.Lock()
		ca := c.pending[m.ReqID]
		delete(c.pending, m.ReqID)
		c.pmu.Unlock()
		if ca == nil {
			// Duplicate or late frame (e.g. an injected duplicate write
			// replayed the response); the call already resolved.
			continue
		}
		var cerr error
		switch {
		case m.Flags&rpc.FlagErr != 0:
			if m.Flags&rpc.FlagLagging != 0 {
				cerr = fmt.Errorf("%w: %s", ErrLagging, string(m.Body))
			} else {
				cerr = &ServerError{Msg: string(m.Body)}
			}
		case ca.onBody != nil:
			d := rpc.NewBody(m.Body)
			cerr = ca.onBody(m.Flags, &d)
			if cerr == nil {
				cerr = d.Err()
			}
		}
		c.deliver(ca, cerr)
	}
}

// deliver resolves one call's outcome. A call owned by a retry sender
// may instead be requeued (transient error, budget remaining), in
// which case the outcome is not final and nothing fires here.
func (c *Conn) deliver(ca *call, err error) {
	if ca.rec != nil && ca.rec.s.onOutcome(ca.rec, err) {
		return
	}
	if ca.onDone != nil {
		ca.onDone(err)
	}
	ca.done <- err
}

// fail tears down one connection generation: every call that was in
// flight on it errors out, and the next operation redials. The
// generation check keeps a stale reader from touching calls that
// belong to a newer connection.
func (c *Conn) fail(nc net.Conn, gen uint64, err error) {
	c.mu.Lock()
	if c.gen == gen {
		c.teardownLocked(nc)
	}
	c.mu.Unlock()
	c.drainGen(gen, err)
}

// teardownLocked closes the live transport if it is still nc and stops
// its watchdog. mu held.
func (c *Conn) teardownLocked(nc net.Conn) {
	if c.nc != nc {
		return
	}
	c.nc.Close()
	c.nc, c.bw = nil, nil
	if c.wstop != nil {
		close(c.wstop)
		c.wstop = nil
	}
}

// drainGen errors out every pending call of generation gen.
func (c *Conn) drainGen(gen uint64, err error) {
	c.pmu.Lock()
	var stale map[uint64]*call
	if c.pgen == gen {
		stale = c.pending
		c.pending = make(map[uint64]*call)
	}
	c.pmu.Unlock()
	if len(stale) == 0 {
		return
	}
	werr := fmt.Errorf("remote: %s: connection failed: %w", c.addr, err)
	for _, ca := range stale {
		c.deliver(ca, werr)
	}
}

// connGenCtr issues globally unique connection generations, so a
// (conn, dial) incarnation is identified by its gen alone — senders pin
// in-flight records to one.
var connGenCtr atomic.Uint64

// startPinned registers ca, encodes one request frame and flushes it. On a
// write error the call is unregistered and the error returned — the
// caller must not wait on it. mustGen is a connection-generation pin: when
// nonzero the frame is only written if the connection is live on
// exactly that generation — it never redials. Senders use the pin to
// keep a shard's FIFO intact across connection churn: records sent on
// a generation that died are requeued by its teardown drain, and until
// that drain lands nothing newer may overtake them on a fresh
// connection. Returns the generation the frame was written on.
func (c *Conn) startPinned(verb rpc.Verb, flags uint8, build func(e *rpc.Encoder), ca *call, mustGen uint64) (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if mustGen != 0 && (c.nc == nil || c.gen != mustGen) {
		return 0, fmt.Errorf("remote: %s: %w", c.addr, errGenMoved)
	}
	if err := c.ensureLocked(); err != nil {
		return 0, err
	}
	gen := c.gen
	c.pmu.Lock()
	c.nextID++
	id := c.nextID
	c.pending[id] = ca
	c.pmu.Unlock()
	err := c.nc.SetWriteDeadline(time.Now().Add(writeTimeout))
	if err == nil {
		c.enc.Begin(verb, flags, id)
		if build != nil {
			build(&c.enc)
		}
		_, err = c.enc.WriteTo(c.bw)
	}
	if err == nil {
		err = c.bw.Flush()
	}
	if err != nil {
		// The connection is unusable: earlier pipelined calls on it
		// will never see responses either, so fail the generation.
		// Draining must not run under mu — a drained submit may requeue
		// through its sender, which re-enters this Conn.
		c.pmu.Lock()
		delete(c.pending, id)
		c.pmu.Unlock()
		c.teardownLocked(c.nc)
		go c.drainGen(gen, err)
		return 0, fmt.Errorf("remote: %s: write: %w", c.addr, err)
	}
	return gen, nil
}

// roundTrip issues one request and blocks for its response. onBody
// parses the success body (reader goroutine; must not block).
func (c *Conn) roundTrip(verb rpc.Verb, flags uint8, build func(e *rpc.Encoder), onBody func(flags uint8, d *rpc.Body) error) error {
	_, err := c.roundTripOn(0, verb, flags, build, onBody)
	return err
}

// roundTripOn is roundTrip pinned to a connection generation (see
// startPinned; 0 = whichever is live, dialing if need be) and returns the
// generation the request ran on. Reads use it to stay on the connection
// their pins live on.
func (c *Conn) roundTripOn(mustGen uint64, verb rpc.Verb, flags uint8, build func(e *rpc.Encoder), onBody func(flags uint8, d *rpc.Body) error) (uint64, error) {
	ca := callPool.Get().(*call)
	ca.onBody, ca.onDone, ca.rec = onBody, nil, nil
	ca.deadline = 0
	if c.opts.RPCDeadline > 0 {
		ca.deadline = time.Now().Add(c.opts.RPCDeadline).UnixNano()
	}
	gen, err := c.startPinned(verb, flags, build, ca, mustGen)
	if err != nil {
		ca.onBody = nil
		callPool.Put(ca)
		return 0, err
	}
	err = <-ca.done
	ca.onBody = nil
	callPool.Put(ca)
	return gen, err
}

// health asks the endpoint for its role and progress (VerbHealth).
func (c *Conn) health() (role uint8, stamp, applied uint64, err error) {
	err = c.roundTrip(rpc.VerbHealth, 0, nil, func(_ uint8, d *rpc.Body) error {
		role = d.U8()
		stamp = d.U64()
		applied = d.U64()
		return nil
	})
	return role, stamp, applied, err
}

// Close tears the connection down; in-flight calls fail.
func (c *Conn) Close() {
	c.mu.Lock()
	nc, gen := c.nc, c.gen
	c.mu.Unlock()
	if nc != nil {
		c.fail(nc, gen, errors.New("closed"))
	}
}
