package main

import (
	"fmt"
	"net"
	"path/filepath"
	"time"

	"repro/internal/aspen"
	"repro/internal/ctree"
	"repro/internal/ligra"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/shard/remote"
	"repro/internal/stream"
)

// vec is a version vector: one commit stamp per engine of the stacking
// (unused entries stay zero).
type vec [remoteShards]uint64

// covers reports whether a snapshot pinned at v includes everything
// committed up to a.
func (v vec) covers(a vec) bool {
	for i := range v {
		if v[i] < a[i] {
			return false
		}
	}
	return true
}

// store is the slice of a stacking the load generator drives. Both engine
// flavours and the remote cluster implement it; the tests substitute a fake
// to check the generator's own accounting.
type store interface {
	// submit enqueues one batch and returns its ack handle.
	submit(del bool, edges []aspen.Edge) (waiter, error)
	// begin pins the latest snapshot.
	begin() (pin, error)
	// counters reads every layer counter the stacking exposes.
	counters() counters
	// flatCounts reads how many flat views were built from scratch and how
	// many were patched from a predecessor so far.
	flatCounts() (builds, patches uint64)
	// close stops the stacking and releases its listeners and files.
	close() error
}

// waiter blocks until the batch is acknowledged and returns the version
// vector a snapshot pinned afterwards must cover.
type waiter interface {
	wait() (vec, error)
}

// pin is one pinned snapshot.
type pin interface {
	stamps() vec
	flat() (ligra.Graph, error)
	close()
}

// counters is a point-in-time read of every counter the layers expose
// through public accessors, summed over the stacking's engines. Phases
// report differences of two reads.
type counters struct {
	commits, batches               uint64
	walAppends, walSyncs, walBytes uint64
	checkpoints                    uint64
	stageSum                       [obs.NumStages]time.Duration
	stageN                         [obs.NumStages]uint64
	client                         remote.Stats
}

type graphEngine = stream.Engine[aspen.Graph, aspen.Edge]

func (c *counters) addEngine(e *graphEngine) {
	st := e.Stats()
	c.commits += st.Commits
	c.batches += st.Batches
	c.walAppends += st.WAL.Appends
	c.walSyncs += st.WAL.Syncs
	c.walBytes += st.WAL.Bytes
	c.checkpoints += st.Checkpoints
	for s := range c.stageSum {
		h := e.Tracer().StageHist(obs.Stage(s))
		c.stageSum[s] += h.Sum()
		c.stageN[s] += h.Count()
	}
}

// sub returns the counters accumulated since o.
func (c counters) sub(o counters) counters {
	d := c
	d.commits -= o.commits
	d.batches -= o.batches
	d.walAppends -= o.walAppends
	d.walSyncs -= o.walSyncs
	d.walBytes -= o.walBytes
	d.checkpoints -= o.checkpoints
	for s := range d.stageSum {
		d.stageSum[s] -= o.stageSum[s]
		d.stageN[s] -= o.stageN[s]
	}
	d.client.RangeRPCs -= o.client.RangeRPCs
	d.client.ViewFetches -= o.client.ViewFetches
	d.client.ViewHits -= o.client.ViewHits
	d.client.Retries -= o.client.Retries
	d.client.DedupAcks -= o.client.DedupAcks
	return d
}

// open builds workload w's stacking on dir. Durable stackings recover
// whatever dir already holds, so calling open twice on one dir is the
// recovery path.
func open(w workload, sh shape, dir string) (store, error) {
	p := ctree.DefaultParams()
	opts := stream.Options{PatchFlat: w.patchFlat}
	switch {
	case w.remote:
		return openRemote(p, opts, 1<<sh.scale, dir)
	case w.durable:
		e, err := stream.RecoverGraphEngine(p, opts, durability(dir))
		if err != nil {
			return nil, err
		}
		return &engineStore{e}, nil
	default:
		return &engineStore{stream.NewGraphEngine(aspen.NewGraph(p), opts)}, nil
	}
}

func durability(dir string) stream.Durability {
	return stream.Durability{Dir: dir, Policy: stream.SyncEveryCommit, CheckpointEvery: checkpointEvery}
}

// engineStore drives one stream.Engine directly.
type engineStore struct{ e *graphEngine }

type enginePending struct{ p stream.Pending }

func (p enginePending) wait() (vec, error) {
	s := p.p.Wait()
	if s == 0 {
		return vec{}, fmt.Errorf("batch refused (engine closed or fail-stop)")
	}
	return vec{s}, nil
}

func (s *engineStore) submit(del bool, edges []aspen.Edge) (waiter, error) {
	var p stream.Pending
	var err error
	if del {
		p, err = s.e.Delete(edges)
	} else {
		p, err = s.e.Insert(edges)
	}
	return enginePending{p}, err
}

type enginePin struct{ tx stream.Tx[aspen.Graph] }

func (p *enginePin) stamps() vec                { return vec{p.tx.Stamp()} }
func (p *enginePin) flat() (ligra.Graph, error) { return p.tx.Flat(), nil }
func (p *enginePin) close()                     { p.tx.Close() }

func (s *engineStore) begin() (pin, error) { return &enginePin{s.e.Begin()}, nil }

func (s *engineStore) counters() counters {
	var c counters
	c.addEngine(s.e)
	return c
}

func (s *engineStore) flatCounts() (uint64, uint64) {
	st := s.e.Stats()
	return st.FlatBuilds, st.FlatPatches
}

func (s *engineStore) close() error {
	s.e.Close()
	return s.e.Err()
}

// remoteStore is two durable shard servers on loopback listeners inside
// this process, driven through the cluster client. Keeping the servers
// in-process lets the ledger read their engines' counters and stamps
// through the same public accessors an operator's /statusz uses.
type remoteStore struct {
	engs [remoteShards]*graphEngine
	srvs [remoteShards]*remote.Server[aspen.Graph, aspen.Edge]
	// served receives each Serve loop's return value.
	served  chan error
	cluster *remote.Cluster[aspen.Edge]
}

func openRemote(p ctree.Params, opts stream.Options, span uint32, dir string) (_ store, err error) {
	s := &remoteStore{served: make(chan error, remoteShards)}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	addrs := make([]string, remoteShards)
	for i := range s.engs {
		// The dedup window is rebuilt from the WAL's notes before the
		// server takes traffic, as cmd/shardd does.
		win := remote.NewDedup(0)
		d := durability(filepath.Join(dir, fmt.Sprintf("shard%d", i)))
		d.OnReplayNote = win.Observe
		if s.engs[i], err = stream.RecoverGraphEngine(p, opts, d); err != nil {
			return nil, err
		}
		srv := remote.NewGraphServer(s.engs[i], p, d.Dir, i, remoteShards)
		srv.SetDedup(win)
		ln, lerr := net.Listen("tcp", "127.0.0.1:0")
		if lerr != nil {
			return nil, lerr
		}
		s.srvs[i] = srv
		addrs[i] = ln.Addr().String()
		go func() { s.served <- srv.Serve(ln) }()
	}
	part := shard.NewRangePartitioner(remoteShards, span)
	s.cluster, err = remote.DialGraph(part, addrs, nil, remote.Options{})
	return s, err
}

// remotePending adds the oracle's half of the visibility check: the client
// ack carries no stamp, so the vector a later pin must cover is read from
// the shard engines once the ack has arrived (a server acks only after its
// commit, so each engine's stamp then is at or past the batch's).
type remotePending struct {
	s *remoteStore
	p *remote.Pending
}

func (p remotePending) wait() (vec, error) {
	if err := p.p.Wait(); err != nil {
		return vec{}, err
	}
	var v vec
	for i, e := range p.s.engs {
		v[i] = e.Stamp()
	}
	return v, nil
}

func (s *remoteStore) submit(del bool, edges []aspen.Edge) (waiter, error) {
	var p *remote.Pending
	var err error
	if del {
		p, err = s.cluster.Delete(edges)
	} else {
		p, err = s.cluster.Insert(edges)
	}
	return remotePending{s, p}, err
}

type remotePin struct{ tx *remote.Tx[aspen.Edge] }

func (p remotePin) stamps() (v vec) {
	copy(v[:], p.tx.Stamps())
	return v
}
func (p remotePin) flat() (ligra.Graph, error) { return p.tx.Flat() }
func (p remotePin) close()                     { p.tx.Close() }

func (s *remoteStore) begin() (pin, error) {
	tx, err := s.cluster.Begin()
	if err != nil {
		return nil, err
	}
	return remotePin{tx}, nil
}

func (s *remoteStore) counters() counters {
	var c counters
	for _, e := range s.engs {
		c.addEngine(e)
	}
	c.client = s.cluster.Stats()
	return c
}

func (s *remoteStore) flatCounts() (uint64, uint64) { return s.cluster.Stats().StitchBuilds, 0 }

func (s *remoteStore) close() error {
	if s.cluster != nil {
		s.cluster.Close()
	}
	var first error
	for i, srv := range s.srvs {
		if srv != nil {
			srv.Close()
			if err := <-s.served; err != nil && first == nil {
				first = err
			}
		}
		if e := s.engs[i]; e != nil {
			e.Close()
			if err := e.Err(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
