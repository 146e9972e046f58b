// Command shardd hosts one shard of the distributed serving layer: a
// durable stream.Engine behind the internal/rpc frame protocol. A
// cluster of shardd processes (one per shard) serves the same facade
// as the in-process sharded cluster — cmd/stream -connect drives it,
// and every algos kernel runs unmodified on stitched remote views.
//
//	shardd -shard 0 -shards 3 -addr 127.0.0.1:7070 -data /var/lib/shard0
//	shardd -shard 0 -shards 3 -replica-of 127.0.0.1:7070 -addr 127.0.0.1:7170
//
// With -replica-of the process is a read replica instead: it tails the
// primary's WAL record stream and serves pinned reads addressed by WAL
// sequence number (no local durability; it re-tails on restart).
//
// Submits are acknowledged only after the batch commits, so under the
// default fsync-per-commit policy an acked batch survives kill -9 of
// the process — the multi-process crash test in main_test.go proves
// exactly that.
//
// -obs-addr mounts the observability plane on a second listener:
// Prometheus-text /metrics (engine, WAL, per-verb RPC latency, dedup
// occupancy, armed failpoints), JSON /statusz (stage breakdown, version
// stamp, slow-commit traces), /healthz (503 once a durability error
// moved the engine to fail-stop), and /debug/pprof. -trace-slow arms
// the slow-commit ring behind /statusz.
//
//	shardd -shard 0 -shards 3 -addr 127.0.0.1:7070 -data d0 -obs-addr 127.0.0.1:9090
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/ctree"
	"repro/internal/faults"
	"repro/internal/ligra"
	"repro/internal/obs"
	"repro/internal/shard/remote"
	"repro/internal/stream"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "shardd:", err)
		os.Exit(1)
	}
}

// run is the whole daemon behind a testable seam: flags, engine (or
// replica), listener, serve loop, graceful shutdown on SIGINT/SIGTERM.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("shardd", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:0", "listen address (port 0 picks one; the chosen address is printed)")
		shardID   = fs.Int("shard", 0, "this process's shard index")
		shards    = fs.Int("shards", 1, "total shard count of the cluster")
		weighted  = fs.Bool("weighted", false, "serve aspen.WeightedGraph instead of aspen.Graph")
		dataDir   = fs.String("data", "", "durability directory: WAL + checkpoints; recovers existing state on start (required for primaries)")
		fsyncPol  = fs.String("fsync", "per-commit", "WAL fsync policy: per-commit or off")
		ckptEvery = fs.Int("ckpt-every", 256, "checkpoint after this many commits")
		replicaOf = fs.String("replica-of", "", "run as a read replica tailing this primary address instead of a primary")
		promote   = fs.Duration("promote-after", 0, "replica: promote to accepting primary after this much sustained primary loss (0 = never)")
		obsAddr   = fs.String("obs-addr", "", "observability listen address serving /metrics, /statusz, /healthz and /debug/pprof (empty disables)")
		traceSlow = fs.Duration("trace-slow", 0, "capture per-stage breakdowns of commits slower than this into the /statusz slow ring (0 disables)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *shardID < 0 || *shards < 1 || *shardID >= *shards {
		return fmt.Errorf("bad -shard %d / -shards %d", *shardID, *shards)
	}
	pol, err := stream.ParseSyncPolicy(*fsyncPol)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)

	p := ctree.DefaultParams()
	if *replicaOf != "" {
		role := "replica"
		fmt.Fprintf(stdout, "shardd: shard %d/%d %s of %s listening on %s\n",
			*shardID, *shards, role, *replicaOf, ln.Addr())
		ro := remote.Options{PromoteAfter: *promote}
		if *weighted {
			return serveReplica(stdout, ln, sigs, *obsAddr, remote.NewGraphReplica[float32](*replicaOf, p, *shardID, *shards, ro))
		}
		return serveReplica(stdout, ln, sigs, *obsAddr, remote.NewGraphReplica[struct{}](*replicaOf, p, *shardID, *shards, ro))
	}

	if *dataDir == "" {
		ln.Close()
		return fmt.Errorf("-data is required (primaries are durable; acks imply committed + logged state)")
	}
	// The dedup window is rebuilt from the WAL's idempotency notes
	// before the server takes traffic, so a submit retried across a
	// crash-restart is still answered from the window, not re-applied.
	win := remote.NewDedup(0)
	dur := stream.Durability{
		Dir:             *dataDir,
		Policy:          pol,
		CheckpointEvery: *ckptEvery,
		OnReplayNote:    win.Observe,
	}
	opts := stream.Options{TraceSlow: *traceSlow}
	if *weighted {
		return servePrimary[float32](stdout, ln, sigs, p, opts, dur, win, *obsAddr, *shardID, *shards)
	}
	return servePrimary[struct{}](stdout, ln, sigs, p, opts, dur, win, *obsAddr, *shardID, *shards)
}

// serveReplica mounts the replica's observability plane and serves until a
// signal closes it.
func serveReplica[G ligra.Graph, E any](stdout io.Writer, ln net.Listener, sigs <-chan os.Signal, obsAddr string, r *remote.Replica[G, E]) error {
	if err := wireReplicaObs(stdout, obsAddr, r.Stats); err != nil {
		ln.Close()
		return err
	}
	go func() { <-sigs; r.Close() }()
	return r.Serve(ln)
}

// wirePrimaryObs mounts the observability plane of a primary: the
// engine's full metric set (commit stages, WAL, checkpoints), the RPC
// server's per-verb dispatch latency, dedup occupancy, and the armed-
// failpoint gauge; /statusz carries the stage breakdown, slow-commit
// traces and engine stats; /healthz turns 503 once a durability error
// moves the engine to fail-stop. Empty addr disables the plane.
func wirePrimaryObs[G ligra.Graph, E any](stdout io.Writer, addr string,
	eng *stream.Engine[G, E], srv *remote.Server[G, E], win *remote.Dedup, shardID int) error {
	if addr == "" {
		return nil
	}
	reg := obs.NewRegistry()
	eng.RegisterMetrics(reg)
	srv.RegisterMetrics(reg)
	faults.Default.RegisterMetrics(reg)
	osrv := obs.NewServer()
	osrv.SetRegistry(reg)
	osrv.SetHealth(eng.Err)
	osrv.SetStatus(func() any {
		slow, seen := eng.Tracer().SlowViews()
		clients, entries := win.Occupancy()
		return map[string]any{
			"shard":        shardID,
			"engine":       eng.Stats(),
			"stages":       eng.Tracer().Summaries(),
			"slow_commits": map[string]any{"seen": seen, "traces": slow},
			"dedup":        map[string]int{"clients": clients, "entries": entries},
			"faults_armed": faults.Default.ArmedCount(),
		}
	})
	if err := osrv.Start(addr); err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	fmt.Fprintf(stdout, "shardd: obs on http://%s (/metrics /statusz /healthz /debug/pprof)\n", osrv.Addr())
	return nil
}

// wireReplicaObs is the replica's smaller plane: no local engine, so
// /statusz serves the replica's tail/read counters and /metrics the
// armed-failpoint gauge plus those counters as read-through views.
func wireReplicaObs(stdout io.Writer, addr string, stats func() remote.ReplicaStats) error {
	if addr == "" {
		return nil
	}
	reg := obs.NewRegistry()
	faults.Default.RegisterMetrics(reg)
	reg.CounterFunc("aspen_replica_records_total",
		"WAL commit frames applied from the primary's tail stream.",
		func() uint64 { return stats().Records })
	reg.GaugeFunc("aspen_replica_applied_seq",
		"Highest WAL sequence number applied (read watermark).",
		func() float64 { return float64(stats().Applied) })
	reg.CounterFunc("aspen_replica_reads_total",
		"Reads served by this replica.",
		func() uint64 { return stats().Reads })
	reg.CounterFunc("aspen_replica_resyncs_total",
		"Tail resynchronization rounds.",
		func() uint64 { return stats().Resyncs })
	osrv := obs.NewServer()
	osrv.SetRegistry(reg)
	osrv.SetStatus(func() any { return stats() })
	if err := osrv.Start(addr); err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	fmt.Fprintf(stdout, "shardd: obs on http://%s (/metrics /statusz /healthz /debug/pprof)\n", osrv.Addr())
	return nil
}

// servePrimary recovers the durable engine of payload V in dur.Dir, wraps
// it in a server with the recovered dedup window, announces the listener,
// serves until a signal, then closes the server (draining connections)
// and the engine (final checkpoint).
func servePrimary[V remote.Payload](stdout io.Writer, ln net.Listener, sigs <-chan os.Signal,
	p ctree.Params, opts stream.Options, dur stream.Durability, win *remote.Dedup,
	obsAddr string, shardID, shards int) error {
	t0 := time.Now()
	eng, err := stream.RecoverGraphEngineOf[V](p, opts, dur)
	if err != nil {
		ln.Close()
		return fmt.Errorf("recover %s: %w", dur.Dir, err)
	}
	srv := remote.NewGraphServer(eng, p, dur.Dir, shardID, shards)
	srv.SetDedup(win)
	if err := wirePrimaryObs(stdout, obsAddr, eng, srv, win, shardID); err != nil {
		ln.Close()
		return err
	}
	st := eng.Stats()
	fmt.Fprintf(stdout, "shardd: shard %d/%d recovered stamp %d in %v, listening on %s\n",
		shardID, shards, st.Stamp, time.Since(t0).Round(time.Millisecond), ln.Addr())
	done := make(chan struct{})
	go func() {
		<-sigs
		srv.Close()
		close(done)
	}()
	err = srv.Serve(ln)
	select {
	case <-done: // signal-driven shutdown: not an error
		err = nil
	default:
	}
	eng.Close()
	if eerr := eng.Err(); eerr != nil {
		return fmt.Errorf("engine: %w", eerr)
	}
	fmt.Fprintln(stdout, "shardd: clean shutdown")
	return err
}
