package remote

import (
	crand "crypto/rand"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/aspen"
	"repro/internal/ligra"
	"repro/internal/rpc"
	"repro/internal/shard"
	"repro/internal/stream"
)

// maxSubmitEdges bounds one Submit frame; larger sub-batches are split
// into several pipelined frames (the engine coalesces them back).
const maxSubmitEdges = 1 << 20

// Cluster is the client half of the distributed shard layer: a lone
// engine's facade (Insert/Delete → Pending, Begin → Tx, Store) over
// several shards, speaking rpc frames to one primary (and optionally one
// read replica) per shard.
type Cluster[E any] struct {
	part     shard.Partitioner
	codec    stream.Codec[E]
	srcOf    func(E) uint32
	opts     Options
	clientID uint64
	prim     []*Conn
	repl     []*Conn // nil entry: no replica for that shard
	send     []*sender
	subSeq   []atomic.Uint64 // per-shard client seq (contiguous per shard)
	sems     []chan struct{}
	nstat    *netCounters
	stop     chan struct{}
	stopOnce sync.Once

	txPool sync.Pool

	vmu    sync.Mutex
	views  []cachedView
	stitch stitchSlot

	// client-observed counters (see Stats).
	edges, batches, submitErrs         atomic.Uint64
	pins, rangeRPCs, viewFetches       atomic.Uint64
	viewHits, stitchBuilds, stitchHits atomic.Uint64
	replicaReads, primaryFallbacks     atomic.Uint64
	deltaReads, deltaEdges             atomic.Uint64
	deltaFallbacks                     [numFallReasons]atomic.Uint64
}

// DialGraphOf connects a cluster client for aspen edges of payload V, whose
// submit codec and read weights derive from V: one primary address per
// shard (len must equal part.Shards()) and optional replica addresses
// (nil, or same length with "" meaning no replica). Connections are
// lazy: a down shard fails the first operation that needs it.
func DialGraphOf[V Payload](part shard.Partitioner, primaries, replicas []string, o Options) (*Cluster[aspen.EdgeOf[V]], error) {
	o = o.withDefaults()
	if len(primaries) != part.Shards() {
		return nil, fmt.Errorf("remote: %d primary addresses for %d shards", len(primaries), part.Shards())
	}
	if replicas != nil && len(replicas) != part.Shards() {
		return nil, fmt.Errorf("remote: %d replica addresses for %d shards", len(replicas), part.Shards())
	}
	var idb [8]byte
	if _, err := crand.Read(idb[:]); err != nil {
		return nil, fmt.Errorf("remote: client id: %w", err)
	}
	c := &Cluster[aspen.EdgeOf[V]]{
		part:     part,
		codec:    stream.EdgeCodecOf[V](),
		srcOf:    shard.EdgeSource[V],
		opts:     o,
		clientID: binary.LittleEndian.Uint64(idb[:]) | 1, // 0 is the no-dedup sentinel
		prim:     make([]*Conn, part.Shards()),
		repl:     make([]*Conn, part.Shards()),
		send:     make([]*sender, part.Shards()),
		subSeq:   make([]atomic.Uint64, part.Shards()),
		sems:     make([]chan struct{}, part.Shards()),
		nstat:    &netCounters{},
		stop:     make(chan struct{}),
		views:    make([]cachedView, part.Shards()),
	}
	anyReplica := false
	for s := range c.prim {
		hi := helloInfo{shard: s, shards: part.Shards(), width: c.codec.Width, role: rolePrimary}
		c.prim[s] = newConn(primaries[s], hi, o, c.nstat)
		if replicas != nil && replicas[s] != "" {
			rhi := hi
			rhi.role = roleReplica
			c.repl[s] = newConn(replicas[s], rhi, o, c.nstat)
			anyReplica = true
		}
		c.send[s] = newSender(c.prim[s], c.repl[s], o, c.nstat)
		c.sems[s] = make(chan struct{}, maxInFlight)
	}
	if anyReplica {
		go c.prober()
	}
	return c, nil
}

// DialGraph is DialGraphOf for the id-only aspen.Edge.
func DialGraph(part shard.Partitioner, primaries, replicas []string, o Options) (*Cluster[aspen.Edge], error) {
	return DialGraphOf[struct{}](part, primaries, replicas, o)
}

// Shards returns the shard count.
func (c *Cluster[E]) Shards() int { return len(c.prim) }

// Partitioner returns the cluster's vertex partitioner.
func (c *Cluster[E]) Partitioner() shard.Partitioner { return c.part }

// prober watches down primaries that have a replica: when the replica
// reports it has promoted itself, the shard's submit stream fails over
// to it.
func (c *Cluster[E]) prober() {
	t := time.NewTicker(c.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
		for s, pc := range c.prim {
			rc := c.repl[s]
			if rc == nil || c.send[s].hasFailedOver() || pc.state() != epDown {
				continue
			}
			c.nstat.probes.Add(1)
			role, _, _, err := rc.health()
			if err != nil || role != rolePromoted {
				continue
			}
			c.nstat.promotions.Add(1)
			if c.send[s].failover() {
				c.nstat.failovers.Add(1)
			}
		}
	}
}

func (s *sender) hasFailedOver() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failedOver
}

// Pending tracks one logical batch across the shards (and frames) it
// was split into. Wait blocks until every remote commit acknowledged
// and returns the first error (nil: the whole batch is committed
// remotely — and durable, under a per-commit fsync policy).
type Pending struct {
	calls []*call
	errs  []error
	done  bool
}

// Wait blocks until every sub-batch resolves. Idempotent.
func (p *Pending) Wait() error {
	if !p.done {
		p.errs = make([]error, len(p.calls))
		for i, ca := range p.calls {
			p.errs[i] = <-ca.done
		}
		p.done = true
		p.calls = nil
	}
	for _, err := range p.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Insert routes a batch of edge insertions and pipelines each
// sub-batch to its shard's primary. Pipelined: the call returns once
// every frame is written (or backpressure admits it), with commit acks
// collected by the returned Pending. Transport failures are retried
// with backoff under the clients' exactly-once (clientID, seq) notes;
// only a server refusal or an exhausted retry budget surfaces, through
// the Pending (the error result is always nil).
func (c *Cluster[E]) Insert(edges []E) (*Pending, error) {
	return c.submit(false, edges), nil
}

// Delete routes a batch of edge deletions.
func (c *Cluster[E]) Delete(edges []E) (*Pending, error) {
	return c.submit(true, edges), nil
}

func (c *Cluster[E]) submit(del bool, edges []E) *Pending {
	p := &Pending{}
	for s, sub := range shard.Route(c.part, edges, c.srcOf) {
		for len(sub) > 0 {
			chunk := sub[:min(len(sub), maxSubmitEdges)]
			sub = sub[len(chunk):]
			p.calls = append(p.calls, c.submitChunk(s, del, chunk))
		}
	}
	return p
}

// submitChunk allocates the chunk's (clientID, seq) identity, hands it
// to the shard's retry sender and returns the in-flight call. Blocks
// while the shard's in-flight window is full. The seq is fixed here,
// so every retransmission of this chunk is the same submit to the
// server's dedup window.
func (c *Cluster[E]) submitChunk(s int, del bool, chunk []E) *call {
	sem := c.sems[s]
	sem <- struct{}{}
	n := uint64(len(chunk))
	ca := &call{done: make(chan error, 1)}
	ca.onBody = func(flags uint8, d *rpc.Body) error {
		if flags&rpc.FlagDeduped != 0 {
			c.nstat.dedupAcks.Add(1)
		}
		return nil
	}
	ca.onDone = func(err error) {
		// Counted before the slot is given back: a drained window means
		// every outcome is in the counters (clusterStore.Flush).
		if err != nil {
			c.submitErrs.Add(1)
		} else {
			c.edges.Add(n)
			c.batches.Add(1)
		}
		<-sem
	}
	flags := uint8(0)
	if del {
		flags = rpc.FlagDel
	}
	w := c.codec.Width
	cid, cseq := c.clientID, c.subSeq[s].Add(1)
	rec := &sendRec{
		s:     c.send[s],
		verb:  rpc.VerbSubmit,
		flags: flags,
		build: func(e *rpc.Encoder) {
			e.U64(cid)
			e.U64(cseq)
			e.U32(uint32(len(chunk)))
			buf := e.Reserve(w * len(chunk))
			for i, ed := range chunk {
				c.codec.Encode(buf[i*w:], ed)
			}
		},
		ca:          ca,
		ackDeadline: c.opts.SubmitAckDeadline,
		expiry:      time.Now().Add(c.opts.RetryDeadline),
	}
	ca.rec = rec
	c.send[s].enqueue(rec)
	return ca
}

// FlushAll flushes every shard concurrently and returns the resulting
// version vector of commit stamps. Flushes ride the same per-shard
// retry queue as submits, so a flush never reorders ahead of a queued
// batch and survives connection churn.
func (c *Cluster[E]) FlushAll() ([]uint64, error) {
	stamps := make([]uint64, len(c.prim))
	calls := make([]*call, len(c.prim))
	for s := range c.prim {
		s := s
		ca := &call{done: make(chan error, 1)}
		ca.onBody = func(_ uint8, d *rpc.Body) error {
			stamps[s] = d.U64()
			d.U64() // seq watermark, unused here
			return nil
		}
		rec := &sendRec{
			s:           c.send[s],
			verb:        rpc.VerbFlush,
			ca:          ca,
			ackDeadline: c.opts.SubmitAckDeadline,
			expiry:      time.Now().Add(c.opts.RetryDeadline),
		}
		ca.rec = rec
		c.send[s].enqueue(rec)
		calls[s] = ca
	}
	var firstErr error
	for _, ca := range calls {
		if err := <-ca.done; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return stamps, firstErr
}

// Barrier waits until every shard has committed everything submitted
// before the call.
func (c *Cluster[E]) Barrier() error {
	_, err := c.FlushAll()
	return err
}

// Close releases the base pins the view cache holds and tears down every
// connection. Pins still held by open transactions are released by the
// servers' connection teardown.
func (c *Cluster[E]) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.dropViews()
	for _, sn := range c.send {
		sn.close()
	}
	for _, cn := range c.prim {
		cn.Close()
	}
	for _, cn := range c.repl {
		if cn != nil {
			cn.Close()
		}
	}
}

// Stats are the client-observed counters: acked ingest volume, the
// read-path cache/fallback behavior, and the resilience layer's
// retry/breaker/failover transitions. Server-side engine counters come
// from ShardStats.
type Stats struct {
	Shards           int    `json:"shards"`
	Edges            uint64 `json:"edges"`
	Batches          uint64 `json:"batches"`
	SubmitErrs       uint64 `json:"submit_errs,omitempty"`
	Pins             uint64 `json:"pins"`
	RangeRPCs        uint64 `json:"range_rpcs"`
	ViewFetches      uint64 `json:"view_fetches"`
	ViewHits         uint64 `json:"view_hits"`
	StitchBuilds     uint64 `json:"stitch_builds"`
	StitchHits       uint64 `json:"stitch_hits"`
	ReplicaReads     uint64 `json:"replica_reads,omitempty"`
	PrimaryFallbacks uint64 `json:"primary_fallbacks,omitempty"`

	// A moved shard is read as a delta against the view the client holds
	// (DeltaReads, carrying DeltaEdges edge changes in all) or, when no
	// delta can be had, from the empty version — one DeltaFallbacks, split
	// by why: the server no longer holds the base (a reconnect, a base read
	// from the other endpoint, a retired replica state), the diff exceeds a
	// quarter of the shard, or the patch did not verify. A shard's first
	// fetch has no view to patch and is neither.
	DeltaReads        uint64 `json:"delta_reads"`
	DeltaEdges        uint64 `json:"delta_edges"`
	DeltaFallbacks    uint64 `json:"delta_fallbacks"`
	DeltaNoBase       uint64 `json:"delta_no_base,omitempty"`
	DeltaTooLarge     uint64 `json:"delta_too_large,omitempty"`
	DeltaVerifyFailed uint64 `json:"delta_verify_failed,omitempty"`

	Retries          uint64 `json:"retries,omitempty"`
	DedupAcks        uint64 `json:"dedup_acks,omitempty"`
	BreakerOpens     uint64 `json:"breaker_opens,omitempty"`
	BreakerFastFails uint64 `json:"breaker_fast_fails,omitempty"`
	Suspects         uint64 `json:"suspects,omitempty"`
	RPCTimeouts      uint64 `json:"rpc_timeouts,omitempty"`
	Failovers        uint64 `json:"failovers,omitempty"`
	Promotions       uint64 `json:"promotions,omitempty"`
	DegradedPins     uint64 `json:"degraded_pins,omitempty"`
	StaleReads       uint64 `json:"stale_reads,omitempty"`
	HealthProbes     uint64 `json:"health_probes,omitempty"`
}

// Stats returns the client-side counters.
func (c *Cluster[E]) Stats() Stats {
	noBase, tooLarge, verify := c.deltaFallbacks[fallNoBase].Load(), c.deltaFallbacks[fallTooLarge].Load(), c.deltaFallbacks[fallVerifyFailed].Load()
	return Stats{
		Shards:           len(c.prim),
		Edges:            c.edges.Load(),
		Batches:          c.batches.Load(),
		SubmitErrs:       c.submitErrs.Load(),
		Pins:             c.pins.Load(),
		RangeRPCs:        c.rangeRPCs.Load(),
		ViewFetches:      c.viewFetches.Load(),
		ViewHits:         c.viewHits.Load(),
		StitchBuilds:     c.stitchBuilds.Load(),
		StitchHits:       c.stitchHits.Load(),
		ReplicaReads:     c.replicaReads.Load(),
		PrimaryFallbacks: c.primaryFallbacks.Load(),

		DeltaReads:        c.deltaReads.Load(),
		DeltaEdges:        c.deltaEdges.Load(),
		DeltaFallbacks:    noBase + tooLarge + verify,
		DeltaNoBase:       noBase,
		DeltaTooLarge:     tooLarge,
		DeltaVerifyFailed: verify,

		Retries:          c.nstat.retries.Load(),
		DedupAcks:        c.nstat.dedupAcks.Load(),
		BreakerOpens:     c.nstat.breakerOpens.Load(),
		BreakerFastFails: c.nstat.breakerFastFails.Load(),
		Suspects:         c.nstat.suspects.Load(),
		RPCTimeouts:      c.nstat.timeouts.Load(),
		Failovers:        c.nstat.failovers.Load(),
		Promotions:       c.nstat.promotions.Load(),
		DegradedPins:     c.nstat.degradedPins.Load(),
		StaleReads:       c.nstat.staleReads.Load(),
		HealthProbes:     c.nstat.probes.Load(),
	}
}

// ShardStats fetches every shard server's engine counters. A server that
// cannot be read leaves its entry zero and names its shard in the error;
// the others are still read.
func (c *Cluster[E]) ShardStats() ([]stream.Stats, error) {
	out := make([]stream.Stats, len(c.prim))
	var errs []error
	for s, cn := range c.prim {
		raw, err := fetchStatsJSON(cn)
		if err == nil {
			err = unmarshalStats(raw, &out[s])
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", s, err))
		}
	}
	return out, errors.Join(errs...)
}

// fetchStatsJSON pulls the server's JSON stats snapshot.
func fetchStatsJSON(cn *Conn) ([]byte, error) {
	var raw []byte
	err := cn.roundTrip(rpc.VerbStats, 0, nil, func(_ uint8, d *rpc.Body) error {
		raw = append([]byte(nil), d.Rest()...) // body aliases reader scratch
		return nil
	})
	return raw, err
}

func unmarshalStats(raw []byte, out *stream.Stats) error {
	return json.Unmarshal(raw, out)
}

// Tx is a pinned cross-shard read transaction: stamps is the version
// vector (one committed prefix per shard; 0 means the shard is pinned
// on a replica and addressed purely by seq), seqs the per-shard WAL
// watermarks replica reads are addressed by. pinned records which
// connection holds each shard's pin (nil: stale cached view, nothing
// to release) and gens the generation of that connection the pin lives
// on: reads and the release stay on it, since a redialed connection
// knows nothing of the pin.
type Tx[E any] struct {
	c      *Cluster[E]
	stamps []uint64
	seqs   []uint64
	pinned []*Conn
	gens   []uint64
	open   bool
}

// Begin pins the latest version on every shard and returns the
// transaction. One Pin round trip per shard, pipelined. A shard whose
// primary is unreachable degrades down the ladder: replica pin
// (fresh-at-pin-time bounded staleness), then — with Options.
// MaxStaleness set — the shard's last cached view if recent enough.
func (c *Cluster[E]) Begin() (*Tx[E], error) {
	tx, _ := c.txPool.Get().(*Tx[E])
	if tx == nil {
		tx = &Tx[E]{
			c:      c,
			stamps: make([]uint64, len(c.prim)),
			seqs:   make([]uint64, len(c.prim)),
			pinned: make([]*Conn, len(c.prim)),
			gens:   make([]uint64, len(c.prim)),
		}
	}
	tx.open = true
	for s := range tx.pinned {
		tx.stamps[s], tx.seqs[s], tx.pinned[s], tx.gens[s] = 0, 0, nil, 0
	}
	pins := make([]struct {
		ca  *call
		err error // the primary's, when its pin fails
	}, len(c.prim))
	for s := range c.prim {
		s := s
		ca := callPool.Get().(*call)
		ca.onBody = func(_ uint8, d *rpc.Body) error {
			tx.stamps[s] = d.U64()
			tx.seqs[s] = d.U64()
			return nil
		}
		ca.deadline = 0
		if c.opts.RPCDeadline > 0 {
			ca.deadline = time.Now().Add(c.opts.RPCDeadline).UnixNano()
		}
		gen, err := c.prim[s].startPinned(rpc.VerbPin, 0, nil, ca, 0)
		if err != nil {
			ca.onBody = nil
			callPool.Put(ca)
			pins[s].err = err // fall back below
			continue
		}
		pins[s].ca, tx.gens[s] = ca, gen
	}
	var firstErr error
	for s, p := range pins {
		if p.ca != nil {
			p.err = <-p.ca.done
			p.ca.onBody = nil
			callPool.Put(p.ca)
			if p.err == nil {
				tx.pinned[s] = c.prim[s]
				continue
			}
		}
		if ferr := c.pinFallback(tx, s, p.err); ferr != nil && firstErr == nil {
			firstErr = ferr
		}
	}
	c.pins.Add(uint64(len(c.prim)))
	if firstErr != nil {
		tx.releasePins()
		tx.open = false
		c.txPool.Put(tx)
		return nil, firstErr
	}
	return tx, nil
}

// pinFallback pins shard s through the degradation ladder after its
// primary refused with primErr: a replica pin if the shard has a live
// replica, then a bounded-stale cached view under Options.MaxStaleness.
// With neither, the error wraps primErr.
func (c *Cluster[E]) pinFallback(tx *Tx[E], s int, primErr error) error {
	if rc := c.repl[s]; rc != nil {
		var stamp, seq uint64
		gen, err := rc.roundTripOn(0, rpc.VerbPin, 0, nil, func(_ uint8, d *rpc.Body) error {
			stamp = d.U64()
			seq = d.U64()
			return nil
		})
		if err == nil {
			tx.stamps[s], tx.seqs[s] = stamp, seq
			tx.pinned[s], tx.gens[s] = rc, gen
			c.nstat.degradedPins.Add(1)
			return nil
		}
	}
	if c.opts.MaxStaleness > 0 {
		c.vmu.Lock()
		cv := c.views[s]
		c.vmu.Unlock()
		if cv.view != nil && time.Since(cv.at) <= c.opts.MaxStaleness {
			tx.stamps[s], tx.seqs[s] = cv.stamp, cv.seq
			c.nstat.staleReads.Add(1)
			return nil
		}
	}
	return fmt.Errorf("remote: shard %d unreachable and no degraded fallback: %w", s, primErr)
}

// Stamps returns the pinned version vector. Valid until Close.
func (t *Tx[E]) Stamps() []uint64 { return t.stamps }

// Seqs returns the per-shard WAL watermarks taken at pin time.
func (t *Tx[E]) Seqs() []uint64 { return t.seqs }

// Flat fetches (or reuses) the stitched flat view of the pinned
// vector; every algos kernel runs on it unmodified. The view is
// immutable and stays valid for this transaction however far later
// ones patch past it.
func (t *Tx[E]) Flat() (ligra.Graph, error) {
	if !t.open {
		return nil, errors.New("remote: use of closed Tx")
	}
	return t.c.flatFor(t)
}

// Close releases the pins. Idempotent.
func (t *Tx[E]) Close() {
	if !t.open {
		return
	}
	t.releasePins()
	t.open = false
	t.c.txPool.Put(t)
}

// releasePins gives every pin back — except a primary pin the shard's
// view-cache slot needs as its delta base, which the slot takes over
// (see cachedView).
func (t *Tx[E]) releasePins() {
	for s, pc := range t.pinned {
		if pc == nil {
			continue
		}
		t.pinned[s] = nil
		if pc == t.c.prim[s] && t.c.adoptPin(s, pc, t.stamps[s], t.gens[s]) {
			continue
		}
		releasePin(pc, t.stamps[s], t.gens[s])
	}
}

// Store returns the cluster client as a stream.Store.
func (c *Cluster[E]) Store() stream.Store[E] { return clusterStore[E]{c} }

// clusterStore adapts Cluster to stream.Store; RegisterMetrics and Close
// are the client's own.
type clusterStore[E any] struct{ *Cluster[E] }

// Submit pipelines the batch; its acks drain through the in-flight window.
func (s clusterStore[E]) Submit(del bool, edges []E) error {
	s.submit(del, edges)
	return nil
}

func (s clusterStore[E]) Pin() (stream.Snapshot, error) {
	tx, err := s.Begin()
	if err != nil {
		return nil, err
	}
	return txSnapshot[E]{tx}, nil
}

// Flush also waits until every shard's in-flight window is empty — a
// shard writes a flush reply and a submit ack from two goroutines, so the
// reply can overtake the ack — and reports submits whose retry budget ran
// out: their error resolved on a Pending nobody waited on.
func (s clusterStore[E]) Flush() ([]uint64, error) {
	stamps, err := s.FlushAll()
	for _, sem := range s.sems {
		for range cap(sem) {
			sem <- struct{}{}
		}
		for range cap(sem) {
			<-sem
		}
	}
	if n := s.submitErrs.Load(); err == nil && n > 0 {
		err = fmt.Errorf("remote: %d submits failed after exhausting retries", n)
	}
	return stamps, err
}

// Stats totals the shard servers' engine counters; ingest volume is the
// client-observed acked count and Detail the client's own Stats. A server
// that cannot be read contributes zeros and its error to Err.
func (s clusterStore[E]) Stats() stream.StoreStats {
	cs := s.Cluster.Stats()
	per, err := s.ShardStats()
	st := stream.SumStats(per)
	if err != nil {
		st.Err = err.Error()
	}
	st.Shards, st.Edges, st.Batches = cs.Shards, cs.Edges, cs.Batches
	st.StitchBuilds, st.StitchHits = cs.StitchBuilds, cs.StitchHits
	st.Detail = cs
	return st
}

// txSnapshot adapts Tx to stream.Snapshot: Stamps, Flat and Close are the
// transaction's own, and a remote cluster ships no tree view.
type txSnapshot[E any] struct{ *Tx[E] }

func (txSnapshot[E]) Tree() ligra.Graph { return nil }
