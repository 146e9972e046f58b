package remote

import (
	"errors"
	"slices"
	"sync"
	"time"

	"repro/internal/ligra"
	"repro/internal/rpc"
	"repro/internal/shard"
)

// cachedView is one shard's slot of the client view cache: the newest view
// fetched for the shard, the pin vector component it answers, and what a
// delta read needs to name it as a base — the endpoint that served it, the
// name that endpoint knows it by (pinned stamp on a primary, WAL seq on a
// replica) and the connection generation it was read on. A base is only
// ever named on that same generation: a primary's pins die with their
// connection, and one generation is one server process, so a view can never
// be patched with a diff taken from some other history.
//
// owned means the slot itself holds one server-side pin reference on (src,
// gen, ref). A primary keeps a version alive only while something pins it,
// and the slot's base must outlive the transaction that fetched it, so the
// last Tx.Close at the slot's stamp hands its reference over instead of
// releasing it; the slot releases it when it moves on, or at Cluster.Close.
// Until that hand-over the fetching transaction's own pin is what keeps the
// base alive. A replica serves bases from its ring and needs no pin.
type cachedView struct {
	stamp, seq uint64
	at         time.Time
	view       ligra.Graph
	src        *Conn
	ref        uint64
	gen        uint64
	owned      bool
}

// base unwraps the slot's view for patching.
func (cv *cachedView) base() *remoteView {
	switch v := cv.view.(type) {
	case *remoteView:
		return v
	case remoteWeightedView:
		return v.remoteView
	}
	return nil
}

// stitchSlot is the single-slot cache of the last stitched view, keyed by
// the exact (stamp, seq) vector. views are the per-shard views behind flat:
// the next stitch refills only the shards whose view is a different one.
type stitchSlot struct {
	stamps []uint64
	seqs   []uint64
	views  []ligra.Graph
	flat   ligra.Graph
}

// How a read of a shard the client already holds a view of went: as a
// delta, or from the empty version for one of three reasons (Stats.Delta*).
const (
	fallNoBase = iota // the server no longer holds the base, or the held view was read on another connection
	fallTooLarge
	fallVerifyFailed
	numFallReasons
	fallNone = -1 // served as a delta
)

// flatFor returns the stitched flat view of t's pinned version vector: a
// single-slot stitched cache (keyed by the exact vector), a per-shard view
// cache (unmoved shards reuse their views), and for whatever moved a delta
// read that patches the cached view — replica first when one is
// configured, primary when the replica lags or is down, the diff from the
// empty version when no delta can be had. Only moved shards are re-stitched.
func (c *Cluster[E]) flatFor(t *Tx[E]) (ligra.Graph, error) {
	// Cache keys are the composite (stamp, seq): a degraded replica pin
	// has stamp 0 and is identified purely by its WAL watermark, and a
	// promoted replica's stamps live in a different domain than the old
	// primary's, so neither vector alone is unique.
	c.vmu.Lock()
	prev := c.stitch
	c.vmu.Unlock()
	if prev.flat != nil && slices.Equal(prev.stamps, t.stamps) && slices.Equal(prev.seqs, t.seqs) {
		c.stitchHits.Add(1)
		return prev.flat, nil
	}

	views := make([]ligra.Graph, len(t.stamps))
	errs := make([]error, len(t.stamps))
	var wg sync.WaitGroup
	for s := range t.stamps {
		c.vmu.Lock()
		cv := c.views[s]
		c.vmu.Unlock()
		if cv.view != nil && cv.stamp == t.stamps[s] && cv.seq == t.seqs[s] {
			views[s] = cv.view
			c.viewHits.Add(1)
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			nv, err := c.fetchShardView(t, s, cv)
			if err != nil {
				errs[s] = err
				return
			}
			views[s] = nv.view
			c.vmu.Lock()
			old := c.views[s]
			c.views[s] = nv
			c.vmu.Unlock()
			c.releaseSlotPin(old)
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var moved []bool
	if len(prev.views) == len(views) {
		moved = make([]bool, len(views))
		for s := range views {
			moved[s] = views[s] != prev.views[s]
		}
	}
	flat := shard.Stitch(c.part, prev.flat, views, moved)
	c.stitchBuilds.Add(1)
	c.vmu.Lock()
	c.stitch = stitchSlot{stamps: slices.Clone(t.stamps), seqs: slices.Clone(t.seqs), views: views, flat: flat}
	c.vmu.Unlock()
	return flat, nil
}

// fetchShardView reads shard s's view at t's pin: from its replica at the
// pinned WAL watermark when one is configured (a state at least as fresh
// as the pinned stamp), falling back to the primary (exactly the pinned
// stamp) when the replica lags or errors. held is the shard's cache slot,
// the base a delta is asked against; with a view held, the read counts as
// one delta read or one fallback, by how the endpoint that served it did.
func (c *Cluster[E]) fetchShardView(t *Tx[E], s int, held cachedView) (cachedView, error) {
	c.viewFetches.Add(1)
	stamp, seq := t.stamps[s], t.seqs[s]
	var nv cachedView
	var err error
	how, served := fallNone, false
	if rc := c.repl[s]; rc != nil && seq > 0 {
		if nv, how, err = c.fetchFrom(rc, rpc.FlagBySeq, seq, 0, held); err == nil {
			c.replicaReads.Add(1)
			served = true
		} else if stamp == 0 {
			// Degraded pin: the shard is addressed purely by replica
			// seq; there is no primary stamp to fall back to.
			return nv, err
		} else {
			c.primaryFallbacks.Add(1)
		}
	}
	if !served {
		gen := uint64(0)
		if t.pinned[s] == c.prim[s] {
			gen = t.gens[s] // the pin lives on that generation only
		}
		if nv, how, err = c.fetchFrom(c.prim[s], 0, stamp, gen, held); err != nil {
			return nv, err
		}
	}
	if held.view != nil {
		if how == fallNone {
			c.deltaReads.Add(1)
		} else {
			c.deltaFallbacks[how].Add(1)
		}
	}
	nv.stamp, nv.seq = stamp, seq
	return nv, nil
}

// fetchFrom reads one shard view over cn, addressed by pinned stamp
// (primary) or WAL seq (replica, FlagBySeq); gen, when nonzero, is the
// connection generation the read must run on. With a view already held
// from cn on that generation the read names it as the base and patches the
// diff it gets back (how is fallNone). Anything else is a fallback, and how
// says why: the server answered from the empty version (no base, too
// large), or the diff did not verify and is read again from the empty
// version on gen.
func (c *Cluster[E]) fetchFrom(cn *Conn, flags uint8, ref, gen uint64, held cachedView) (cachedView, int, error) {
	how := fallNoBase
	if base := held.base(); base != nil && held.src == cn && (gen == 0 || gen == held.gen) {
		var d delta
		status, _, err := c.readChunks(cn, flags, ref, held.ref, held.gen, &d)
		how = fallVerifyFailed
		switch {
		case errors.Is(err, errGenMoved):
			how = fallNoBase // reconnected since: the base pin is gone
		case err != nil && !errors.Is(err, errDeltaBody):
			return cachedView{}, how, err
		case err != nil:
		case status == deltaOK:
			if v, err := base.patch(&d); err == nil {
				c.deltaEdges.Add(uint64(d.edges()))
				return c.slotFor(v, cn, ref, held.gen), fallNone, nil
			}
		default: // answered from the empty version, for the reason status gives
			if v, err := d.view(c.weighted); err == nil {
				how = [...]int{deltaNoBase: fallNoBase, deltaTooLarge: fallTooLarge}[status]
				return c.slotFor(v, cn, ref, held.gen), how, nil
			}
		}
	}
	var d delta
	_, gen, err := c.readChunks(cn, flags, ref, 0, gen, &d)
	var v *remoteView
	if err == nil {
		v, err = d.view(c.weighted)
	}
	if err != nil {
		return cachedView{}, how, err
	}
	return c.slotFor(v, cn, ref, gen), how, nil
}

// slotFor wraps a fetched view as the cache slot naming it on cn.
func (c *Cluster[E]) slotFor(v *remoteView, cn *Conn, ref, gen uint64) cachedView {
	cv := cachedView{at: time.Now(), view: v, src: cn, ref: ref, gen: gen}
	if c.weighted {
		cv.view = remoteWeightedView{v}
	}
	return cv
}

// readChunks reads version ref over cn into d as the diff from base (0:
// the empty version), chunk by chunk on one connection generation — gen,
// or whichever is live when gen is 0 — and returns the first chunk's
// status and the generation the read ran on. A body from the empty version
// in the middle of a diff (the base went away between chunks) starts the
// read over from the empty version.
func (c *Cluster[E]) readChunks(cn *Conn, flags uint8, ref, base, gen uint64, d *delta) (uint8, uint64, error) {
	var status uint8
	for lo := uint32(0); ; {
		var st uint8
		g, err := cn.roundTripOn(gen, rpc.VerbRead, flags, func(e *rpc.Encoder) {
			e.U64(ref)
			e.U32(lo)
			e.U64(base)
		}, func(_ uint8, b *rpc.Body) (err error) {
			st, err = d.decode(b, c.weighted)
			return err
		})
		switch {
		case errors.Is(err, errBaseGone) && base != 0:
			*d, lo, base = delta{}, 0, 0
			continue
		case err != nil:
			return status, gen, err
		case lo == 0:
			status = st
		}
		c.rangeRPCs.Add(1)
		gen = g // later chunks stay on the first one's connection
		if !d.more {
			return status, gen, nil
		}
		lo = d.verts[len(d.verts)-1].id + 1
	}
}

// releaseSlotPin gives back the pin reference a replaced (or closing)
// slot owned. Fire-and-forget on the generation the pin lives on: if the
// connection moved on, the server already dropped it.
func (c *Cluster[E]) releaseSlotPin(cv cachedView) {
	if cv.owned {
		releasePin(cv.src, cv.ref, cv.gen)
	}
}

// dropViews empties the view cache, giving back the base pins it holds.
func (c *Cluster[E]) dropViews() {
	c.vmu.Lock()
	defer c.vmu.Unlock()
	for s := range c.views {
		c.releaseSlotPin(c.views[s])
		c.views[s] = cachedView{}
	}
	c.stitch = stitchSlot{}
}

// releasePin sends one VerbRelease for stamp on generation gen of cn
// without waiting for the reply: a lost release is reclaimed by the
// server's connection teardown.
func releasePin(cn *Conn, stamp, gen uint64) {
	ca := &call{done: make(chan error, 1)}
	_, _ = cn.startPinned(rpc.VerbRelease, 0, func(e *rpc.Encoder) { e.U64(stamp) }, ca, gen)
}

// adoptPin hands the slot of shard s one pin reference a closing
// transaction holds, when that reference is exactly what keeps the slot's
// base alive: same endpoint, same generation, same stamp, and not already
// covered. It reports whether the slot took it.
func (c *Cluster[E]) adoptPin(s int, cn *Conn, stamp, gen uint64) bool {
	c.vmu.Lock()
	defer c.vmu.Unlock()
	cv := &c.views[s]
	if cv.view == nil || cv.owned || cv.src != cn || cv.ref != stamp || cv.gen != gen {
		return false
	}
	cv.owned = true
	return true
}
