// Command stream reproduces the paper's §7.8 experiment on a live store: N
// reader goroutines issue analytics queries (BFS/CC/SSSP) against pinned
// snapshots while a single writer sustains batched edge inserts and
// deletes, reporting update throughput and p50/p95/p99 commit and query
// latencies. The store is one of three deployments behind stream.Store —
// a lone engine (the default), an in-process shard cluster (-shards N), or
// a running cluster of cmd/shardd processes (-connect) — and every
// invocation runs one workload against one store and prints one report.
// Examples:
//
//	stream -scale 17 -init 1000000 -batch 5000 -readers 4 -duration 5s
//	stream -weighted -algos bfs,sssp -readers 4
//	stream -quick -shards 2 -partition hash -interval 20ms
//	stream -quick -connect 127.0.0.1:7801,127.0.0.1:7802 -read-from 127.0.0.1:7901,
//
// -readers 0 is the update-only baseline and -batch 0 (no writer) the
// query-only one; -interval paces the writer to one batch per interval (0
// saturates). The §7.8 table is a shell loop over invocations:
//
//	for r in 0 1 4; do for s in 1 2 4; do stream -shards $s -readers $r -interval 20ms; done; done
//
// -obs-addr mounts the observability plane for the run's store:
// Prometheus-text /metrics, JSON /statusz (with the commit stage breakdown
// and slow-commit traces of a lone engine), /healthz, and /debug/pprof.
// -trace-slow <dur> additionally captures every commit slower than <dur>
// into a bounded ring and dumps it (per-stage: enqueue, coalesce,
// wal_append, fsync, apply, flat_patch, ack) after a lone-engine run:
//
//	stream -quick -obs-addr 127.0.0.1:9090 -trace-slow 2ms -duration 30s
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/algos"
	"repro/internal/aspen"
	"repro/internal/ctree"
	"repro/internal/ligra"
	"repro/internal/obs"
	"repro/internal/rmat"
	"repro/internal/shard"
	"repro/internal/shard/remote"
	"repro/internal/stream"
	"repro/internal/xhash"
)

// The three deployments an invocation can select.
const (
	modeEngine = "engine" // a lone in-process engine (default; -shards ≤ 1)
	modeShards = "shards" // -shards N > 1: an in-process cluster
	modeRemote = "remote" // -connect: a running cluster of shardd processes
)

// flagModes lists, for every flag that only some deployments can honour,
// the modes that do. Setting one to a non-default value under any other
// mode is an error, not a silently ignored option. -init is rejected
// whenever it is set at all: its default is a real size, so "non-default"
// cannot tell a deliberate -init from none (shardd servers hold the graph
// a -connect run starts from).
var flagModes = map[string][]string{
	"init":       {modeEngine, modeShards},
	"shards":     {modeEngine, modeShards},
	"read-from":  {modeRemote},
	"partition":  {modeShards, modeRemote},
	"data":       {modeEngine},
	"inc-cc":     {modeEngine},
	"flat":       {modeEngine, modeShards},
	"trace-slow": {modeEngine, modeShards},
}

func main() {
	var (
		scale    = flag.Int("scale", 17, "log2 of the vertex-id space")
		initE    = flag.Uint64("init", 1_000_000, "rMAT edges sampled for the initial graph")
		batch    = flag.Uint64("batch", 5_000, "edges per update batch (before symmetrization); 0 runs no writer (the query-only baseline)")
		readers  = flag.Int("readers", 1, "concurrent reader goroutines; 0 is the update-only baseline")
		duration = flag.Duration("duration", 3*time.Second, "sustained load of the run")
		weighted = flag.Bool("weighted", false, "serve aspen.WeightedGraph instead of aspen.Graph")
		algoList = flag.String("algos", "", "comma list of kernels: bfs,cc,sssp (default bfs,cc; bfs,sssp when -weighted)")
		flat     = flag.Bool("flat", true, "run kernels on the per-version cached flat view (§5.1), patched from its predecessor's")
		incCC    = flag.Bool("inc-cc", false, "maintain incremental connectivity on the commit path and query it as an extra kernel")
		delmix   = flag.Uint64("delmix", 10, "delete-batch period of the writer schedule: one delete every N batches (10 = the classic 9:1 mix, 2 = delete-heavy expiry)")
		interval = flag.Duration("interval", 0, "pace the writer to one batch per interval (0 = saturate)")
		shards   = flag.Int("shards", 1, "shard count of an in-process cluster (≤ 1 = the lone engine)")
		connect  = flag.String("connect", "", "comma list of shardd primary addresses: drive a remote cluster instead of in-process engines")
		readFrom = flag.String("read-from", "", "comma list of shardd replica addresses (one per -connect shard, empty entries allowed)")
		partKind = flag.String("partition", "range", "shard partitioner: range or hash")
		quick    = flag.Bool("quick", false, "tiny smoke-test configuration")
		seed     = flag.Uint64("seed", 42, "rMAT stream seed")

		dataDir  = flag.String("data", "", "durability directory: WAL + checkpoints; recovers existing state on start")
		fsyncPol = flag.String("fsync", "per-commit", "WAL fsync policy with -data: per-commit or off")
		ckptEv   = flag.Int("ckpt-every", 256, "checkpoint after this many commits with -data")
		recOnly  = flag.Bool("recover-only", false, "recover -data, report what survived, and exit")
		killN    = flag.Int("killtest", 0, "ingest N deterministic durable batches into -data, printing an ack line per commit (crash-harness mode)")

		obsAddr   = flag.String("obs-addr", "", "observability listen address serving /metrics, /statusz, /healthz and /debug/pprof (empty disables)")
		traceSlow = flag.Duration("trace-slow", 0, "capture per-stage breakdowns of commits slower than this; dumped after the run and served via /statusz (0 disables)")
	)
	flag.Parse()
	if (*killN > 0 || *recOnly) && *dataDir == "" {
		fatal("-killtest and -recover-only require -data")
	}
	if *killN > 0 {
		runKillTest(*dataDir, *killN)
		return
	}
	if *recOnly {
		if *weighted {
			runRecoverOnly[float32](*dataDir)
		} else {
			runRecoverOnly[struct{}](*dataDir)
		}
		return
	}

	mode := modeEngine
	switch {
	case *connect != "":
		mode = modeRemote
	case *shards > 1:
		mode = modeShards
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) {
		set[f.Name] = true
		if modes, ok := flagModes[f.Name]; ok && (f.Name == "init" || f.Value.String() != f.DefValue) && !slices.Contains(modes, mode) {
			fatal("-%s=%s does not apply to the %s deployment (honoured by: %s)",
				f.Name, f.Value, mode, strings.Join(modes, ", "))
		}
	})
	if *quick {
		// Shrink only the flags the user did not set explicitly.
		for name, v := range map[string]string{"scale": "12", "init": "40000", "batch": "1000", "duration": "300ms", "readers": "2"} {
			if !set[name] {
				flag.Set(name, v)
			}
		}
	}
	if *algoList == "" {
		if *weighted {
			*algoList = "bfs,sssp"
		} else {
			*algoList = "bfs,cc"
		}
	}
	if *scale < 1 || *scale > 31 {
		fatal("-scale must be in [1, 31] (vertex ids are uint32)")
	}
	if *delmix == 1 {
		fatal("-delmix must be 0 (inserts only) or ≥ 2")
	}
	if *readers <= 0 && *batch == 0 {
		fatal("-readers 0 with -batch 0 runs nothing")
	}
	cfg := config{
		Scale: *scale, InitEdges: *initE, Batch: *batch, Readers: *readers, Weighted: *weighted,
		Algos: *algoList, Flat: *flat, IncCC: *incCC, DelPeriod: *delmix, Interval: *interval,
		Partition: *partKind, Duration: *duration, Seed: *seed,
		Data: *dataDir, Fsync: *fsyncPol, CkptEvery: *ckptEv,
		TraceSlow: *traceSlow, ObsAddr: *obsAddr,
	}
	kernels(cfg, nil) // reject a bad -algos before any store is built

	d := deployment{name: "single engine"}
	switch mode {
	case modeShards:
		d = deployment{name: fmt.Sprintf("%d shards", *shards), shards: *shards}
	case modeRemote:
		d = deployment{primaries: splitAddrs(*connect)}
		d.name = fmt.Sprintf("remote %d shards", len(d.primaries))
		if *readFrom != "" {
			d.replicas = splitAddrs(*readFrom)
			if len(d.replicas) != len(d.primaries) {
				fatal("-read-from lists %d addresses for %d shards (use empty entries for shards without replicas)", len(d.replicas), len(d.primaries))
			}
		}
	}

	fmt.Printf("stream: %s scale=%d init=%d batch=%d weighted=%v algos=%s flat=%v inc-cc=%v delmix=%d procs=%d\n",
		mode, *scale, *initE, *batch, *weighted, *algoList, *flat, *incCC, *delmix, runtime.GOMAXPROCS(0))

	// Graceful shutdown: SIGINT/SIGTERM ends the run early (the writer
	// quits, submitted batches flush, readers drain); a durable engine still
	// closes cleanly, writing a final checkpoint.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	var r stream.Report
	if cfg.Weighted {
		r = run(ctx, cfg, d, weightedBatch)
	} else {
		r = run(ctx, cfg, d, graphBatch)
	}
	if r.SubmitErr != "" {
		fatal("writer stopped early: %s", r.SubmitErr)
	}
}

// config records the experiment parameters.
type config struct {
	Scale     int
	InitEdges uint64
	Batch     uint64
	Readers   int
	Weighted  bool
	Algos     string
	Flat      bool
	IncCC     bool
	DelPeriod uint64
	Interval  time.Duration
	Partition string
	Duration  time.Duration
	Seed      uint64

	// Durability settings (-data empty means in-memory).
	Data      string
	Fsync     string
	CkptEvery int

	// TraceSlow is the -trace-slow slow-commit threshold (0 = off).
	TraceSlow time.Duration
	// ObsAddr is the -obs-addr listen address ("" = no plane).
	ObsAddr string
}

// engineOptions always patches flat views: a version's view is derived
// from its predecessor's in O(batch) instead of rebuilt in O(n).
func (cfg config) engineOptions() stream.Options {
	return stream.Options{PatchFlat: true, TraceSlow: cfg.TraceSlow}
}

// partitioner builds the requested partitioner over the id space.
func (cfg config) partitioner(s int) shard.Partitioner {
	if cfg.Partition == "hash" {
		return shard.NewHashPartitioner(s)
	}
	return shard.NewRangePartitioner(s, uint32(1)<<cfg.Scale)
}

// deployment is one way of serving the graph: a lone engine (shards ≤ 1, no
// primaries), an in-process cluster, or a dialed remote cluster.
type deployment struct {
	name                string
	shards              int
	primaries, replicas []string
}

// opened is a store built for one run plus the handles only some
// deployments have.
type opened[E any] struct {
	stream.Store[E]
	health func() error         // fail-stop error of a durable engine; nil elsewhere
	tracer *obs.StageTracer     // commit stage tracer of a lone engine; nil elsewhere
	incCC  *algos.IncrementalCC // standing connectivity under -inc-cc
}

func openedEngine[V ctree.Value](cfg config, e *stream.Engine[aspen.GraphOf[V], aspen.EdgeOf[V]]) opened[aspen.EdgeOf[V]] {
	o := opened[aspen.EdgeOf[V]]{Store: e.Store(), health: e.Err, tracer: e.Tracer()}
	if cfg.IncCC {
		// Attached with ingest quiescent (after any preload flush): the
		// bootstrap covers the initial graph, the commit hook everything
		// after.
		o.incCC = stream.AttachGraphIncrementalCC(e)
	}
	return o
}

// openGraph builds deployment d over aspen graphs of payload V. In-process
// stores load the initial edges outside the serving path, so counters and
// latency digests see only the stream; a durable engine recovers its
// directory and preloads through its own ingest path (WAL-logged like any
// other batch).
func openGraph[V remote.Payload](cfg config, d deployment, initial func() []aspen.EdgeOf[V]) opened[aspen.EdgeOf[V]] {
	p, opts := ctree.DefaultParams(), cfg.engineOptions()
	switch {
	case d.primaries != nil:
		c, err := remote.DialGraphOf[V](cfg.partitioner(len(d.primaries)), d.primaries, d.replicas, remote.Options{})
		if err != nil {
			fatal("%v", err)
		}
		return opened[aspen.EdgeOf[V]]{Store: c.Store()}
	case d.shards > 1:
		return opened[aspen.EdgeOf[V]]{Store: shard.NewGraphClusterFrom(cfg.partitioner(d.shards), p, initial(), opts).Store()}
	case cfg.Data != "":
		e, err := stream.RecoverGraphEngineOf[V](p, opts, cfg.durability())
		if err != nil {
			fatal("recover %s: %v", cfg.Data, err)
		}
		preload(e.Store(), initial())
		return openedEngine(cfg, e)
	}
	return openedEngine(cfg, stream.NewGraphEngine(aspen.NewGraphOf[V](p).InsertEdges(initial()), opts))
}

// preload pushes the initial edge set through the store's own ingest path
// in moderate chunks and flushes.
func preload[E any](s stream.Store[E], edges []E) {
	const chunk = 1 << 17
	for lo := 0; lo < len(edges); lo += chunk {
		if err := s.Submit(false, edges[lo:min(lo+chunk, len(edges))]); err != nil {
			fatal("preload: %v", err)
		}
	}
	if _, err := s.Flush(); err != nil {
		fatal("preload: %v", err)
	}
}

// graphBatch maps a directed edge range of the generator onto symmetrized
// updates.
func graphBatch(gen rmat.Generator, lo, hi uint64) []aspen.Edge {
	return aspen.MakeUndirected(gen.Edges(lo, hi))
}

// weightedBatch is graphBatch with a deterministic non-negative weight per
// stream edge.
func weightedBatch(gen rmat.Generator, lo, hi uint64) []aspen.WeightedEdge {
	es := gen.Edges(lo, hi)
	out := make([]aspen.WeightedEdge, 0, 2*len(es))
	for j, e := range es {
		w := 1 + float32(xhash.Mix64(lo+uint64(j))%1000)/1000
		out = append(out,
			aspen.WeightedEdge{Src: e.Src, Dst: e.Dst, Val: w},
			aspen.WeightedEdge{Src: e.Dst, Dst: e.Src, Val: w})
	}
	return out
}

// run opens deployment d over aspen graphs of payload V, runs the workload
// on it, prints the report, and closes the store. batch materializes a
// generator range as updates.
func run[V remote.Payload](ctx context.Context, cfg config, d deployment,
	batch func(gen rmat.Generator, lo, hi uint64) []aspen.EdgeOf[V]) stream.Report {
	gen := rmat.NewGenerator(cfg.Scale, cfg.Seed)
	mk := func(lo, hi uint64) []aspen.EdgeOf[V] { return batch(gen, lo, hi) }
	o := openGraph(cfg, d, func() []aspen.EdgeOf[V] { return mk(0, cfg.InitEdges) })
	startObs(cfg.ObsAddr, o)
	w := stream.Workload[aspen.EdgeOf[V]]{
		Store: o, Readers: cfg.Readers, Kernels: kernels(cfg, o.incCC),
		Duration: cfg.Duration, Interval: cfg.Interval,
		UseFlat: cfg.Flat, Stop: ctx.Done(),
	}
	load := fmt.Sprintf("%d readers", cfg.Readers)
	switch {
	case cfg.Batch == 0:
		load = fmt.Sprintf("query-only (%d readers)", cfg.Readers)
	case cfg.Readers <= 0:
		load = "update-only"
	}
	if cfg.Batch > 0 {
		// The schedule starts past the initial edges; a remote cluster,
		// which holds whatever its servers hold, draws from the same range.
		w.NextBatch = stream.UpdateScheduleMix(cfg.InitEdges, cfg.Batch, cfg.DelPeriod, mk)
	}
	pace := "saturated"
	if cfg.Interval > 0 {
		pace = fmt.Sprintf("paced %v", cfg.Interval)
	}
	r := w.Run()
	fmt.Printf("\n== %s, %s, %s ==\n", d.name, load, pace)
	printRun(r)
	if o.incCC != nil {
		st := o.incCC.Stats()
		fmt.Printf("inc-cc: %d unions, %d delete recomputes, %d vertices reverified\n",
			st.Unions, st.Recomputes, st.Reverified)
	}
	if o.tracer != nil && cfg.TraceSlow > 0 {
		dumpSlowTraces(o.tracer, cfg.TraceSlow)
	}
	closeStore(cfg, o)
	return r
}

// closeStore closes o and, when durable, reports the WAL/checkpoint work
// the run generated (Close writes a final checkpoint).
func closeStore[E any](cfg config, o opened[E]) {
	o.Close()
	if o.health == nil {
		return
	}
	if err := o.health(); err != nil {
		fatal("durability failure: %v", err)
	}
	if cfg.Data != "" {
		fin := o.Stats().PerShard[0]
		fmt.Printf("durability: %d WAL appends, %d fsyncs, %d MiB logged, %d checkpoints (final on close)\n",
			fin.WAL.Appends, fin.WAL.Syncs, fin.WAL.Bytes>>20, fin.Checkpoints)
	}
}

// kernelTable is every -algos kernel: each runs on whatever view the store
// pinned (always a ligra.Graph; sssp asserts the weighted capability) from
// the source it is handed.
var kernelTable = map[string]func(g ligra.Graph, src uint32){
	"bfs":  func(g ligra.Graph, src uint32) { algos.BFS(g, src, false) },
	"cc":   func(g ligra.Graph, _ uint32) { algos.ConnectedComponents(g) },
	"sssp": func(g ligra.Graph, src uint32) { algos.SSSP(g.(ligra.WeightedGraph), src) },
}

// kernels builds the -algos list, plus the standing-connectivity probe
// under -inc-cc. Sources vary deterministically across calls, from one
// counter per kernel that all reader goroutines share.
func kernels(cfg config, ccq *algos.IncrementalCC) []stream.Kernel {
	sources := func() func() uint32 {
		var i atomic.Uint64
		return func() uint32 { return uint32(xhash.Seeded(13, i.Add(1)) % (uint64(1) << cfg.Scale)) }
	}
	var ks []stream.Kernel
	for _, a := range strings.Split(cfg.Algos, ",") {
		name := strings.TrimSpace(a)
		run, ok := kernelTable[name]
		if !ok {
			fatal("unknown algo %q", a)
		}
		if name == "sssp" && !cfg.Weighted {
			fatal("sssp requires -weighted")
		}
		src := sources()
		ks = append(ks, stream.Kernel{Name: name, Run: func(g ligra.Graph) { run(g, src()) }})
	}
	if ccq != nil {
		// The standing structure answers from its arrays — no kernel run,
		// no snapshot needed; its latency row is the point.
		src := sources()
		ks = append(ks, stream.Kernel{Name: "inccc", Run: func(ligra.Graph) { ccq.Component(src()) }})
	}
	return ks
}

func printRun(r stream.Report) {
	if r.Updates > 0 {
		across, worst := "", ""
		if r.Shards > 1 {
			across, worst = fmt.Sprintf(" across %d shards", r.Shards), " (worst shard)"
		}
		fmt.Printf("updates: %.3g edges/sec (%d edges, %d batches, %d commits%s, coalesce %.2f)\n",
			r.UpdatesPerSec, r.Updates, r.Batches, r.Commits, across, r.Coalesce)
		fmt.Printf("commit latency%s: p50 %-10v p95 %-10v p99 %-10v max %v\n",
			worst, r.Commit.P50, r.Commit.P95, r.Commit.P99, r.Commit.Max)
	}
	if r.Queries+r.QueryErrs > 0 {
		fmt.Printf("queries: %.1f/sec across %d readers, %d failed\n", r.QueriesPerSec, r.Readers, r.QueryErrs)
		fmt.Printf("query latency:   p50 %-10v p95 %-10v p99 %-10v max %v\n",
			r.Query.P50, r.Query.P95, r.Query.P99, r.Query.Max)
		for _, k := range r.PerKernel {
			fmt.Printf("  %-5s          p50 %-10v p95 %-10v p99 %-10v (%d runs)\n",
				k.Name, k.Latency.P50, k.Latency.P95, k.Latency.P99, k.Latency.Count)
		}
	}
	fmt.Printf("versions: stamps %v, %d retired, %d live\n", r.FinalStamps, r.RetiredVersions, r.LiveVersions)
	if n := r.FlatBuilds + r.FlatPatches; n+r.FlatHits > 0 {
		fmt.Printf("flat cache: %d builds, %d patches, %d hits (%.1f queries per materialization)\n",
			r.FlatBuilds, r.FlatPatches, r.FlatHits, float64(n+r.FlatHits)/float64(max(n, 1)))
	}
	var held, declined uint64
	var parked time.Duration
	for _, es := range r.PerShard {
		held, declined, parked = held+es.PriorityHolds, declined+es.PriorityDeclined, parked+es.ReaderWait
	}
	if held+declined > 0 {
		fmt.Printf("writer priority: %d applies held the gate, %d declined, readers parked %v\n", held, declined, parked)
	}
	if r.StitchBuilds+r.StitchPatches+r.StitchHits > 0 {
		fmt.Printf("stitched flat: %d builds, %d delta stitches, %d hits\n", r.StitchBuilds, r.StitchPatches, r.StitchHits)
	}
	if cs, ok := r.Detail.(remote.Stats); ok {
		fmt.Printf("client: %d range RPCs, %d view fetches, %d view hits, %d replica reads, %d primary fallbacks\n",
			cs.RangeRPCs, cs.ViewFetches, cs.ViewHits, cs.ReplicaReads, cs.PrimaryFallbacks)
		fmt.Printf("delta reads: %d (%d edge changes), %d fallbacks read from the empty version (%d no base, %d too large, %d verify failed)\n",
			cs.DeltaReads, cs.DeltaEdges, cs.DeltaFallbacks, cs.DeltaNoBase, cs.DeltaTooLarge, cs.DeltaVerifyFailed)
		if cs.Retries+cs.DedupAcks+cs.BreakerOpens+cs.BreakerFastFails+cs.RPCTimeouts+
			cs.Failovers+cs.Promotions+cs.DegradedPins+cs.StaleReads > 0 {
			fmt.Printf("faults: %d retries, %d dedup acks, %d breaker opens (%d fast fails), %d rpc timeouts, %d failovers, %d promotions, %d degraded pins, %d stale reads\n",
				cs.Retries, cs.DedupAcks, cs.BreakerOpens, cs.BreakerFastFails, cs.RPCTimeouts,
				cs.Failovers, cs.Promotions, cs.DegradedPins, cs.StaleReads)
		}
	}
	if r.SubmitErr != "" {
		fmt.Printf("SUBMIT ERROR (writer stopped early): %s\n", r.SubmitErr)
	}
	if r.StatsErr != "" {
		fmt.Printf("STATS ERROR (counts miss these shards): %s\n", r.StatsErr)
	}
}

// splitAddrs splits a comma list, keeping empty entries (a shard with no
// replica).
func splitAddrs(s string) []string {
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "stream: "+format+"\n", args...)
	os.Exit(1)
}
