// Command stream reproduces the paper's §7.8 experiment on a live store: N
// reader goroutines issue analytics queries (BFS/CC/SSSP) against pinned
// snapshots while a single writer sustains batched edge inserts and
// deletes, reporting update throughput and p50/p95/p99 commit and query
// latencies. The store is one of three deployments behind stream.Store —
// a lone engine (the default), in-process shard clusters (-shards), or a
// running cluster of cmd/shardd processes (-connect) — and every run goes
// through the same workload and report. Examples:
//
//	stream -scale 17 -init 1000000 -batch 5000 -readers 1,4,8 -duration 5s
//	stream -weighted -algos bfs,sssp -readers 4
//
// The engine sweep runs each reader count at the offered load (-interval,
// or saturated) plus update-only and query-only baselines (-isolate). With
// -shards or -connect the sweep is reader counts × {saturated, paced when
// -interval is set} × deployments; shard count 1 is the lone engine, the
// baseline every speedup is quoted against:
//
//	stream -scale 16 -init 500000 -shards 1,2,4 -readers 1,4 -interval 20ms
//	stream -quick -shards 2 -partition hash
//	stream -quick -connect 127.0.0.1:7801,127.0.0.1:7802 -read-from 127.0.0.1:7901,
//
// Shard servers keep their state between runs, so against -connect the
// writer schedule keeps one cursor across the sweep.
//
// -obs-addr mounts the observability plane for the whole process:
// Prometheus-text /metrics for the current run's store, JSON /statusz
// (with the commit stage breakdown and slow-commit traces of a lone
// engine), /healthz, and /debug/pprof. -trace-slow <dur> additionally
// captures every commit slower than <dur> into a bounded ring and dumps it
// (per-stage: enqueue, coalesce, wal_append, fsync, apply, flat_patch,
// ack) after each lone-engine run:
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
	"strconv"
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

// The three deployment modes a sweep can select.
const (
	modeEngine = "engine" // a lone in-process engine (default)
	modeShards = "shards" // -shards: in-process clusters, 1 = the lone engine
	modeRemote = "remote" // -connect: a running cluster of shardd processes
)

// flagModes lists, for every flag that only some deployments can honour,
// the modes that do. Setting one to a non-default value under any other
// mode is an error, not a silently ignored option. -init is rejected
// whenever it is set at all: its default is a real size, so "non-default"
// cannot tell a deliberate -init from none (shardd servers hold the graph
// a -connect run starts from).
var flagModes = map[string][]string{
	"init":          {modeEngine, modeShards},
	"shards":        {modeShards},
	"read-from":     {modeRemote},
	"partition":     {modeShards, modeRemote},
	"data":          {modeEngine},
	"inc-cc":        {modeEngine},
	"flat":          {modeEngine, modeShards},
	"prebuild-flat": {modeEngine, modeShards},
	"patch-flat":    {modeEngine, modeShards},
	"trace-slow":    {modeEngine, modeShards},
}

func main() {
	var (
		scale    = flag.Int("scale", 17, "log2 of the vertex-id space")
		initE    = flag.Uint64("init", 1_000_000, "rMAT edges sampled for the initial graph")
		batch    = flag.Uint64("batch", 5_000, "edges per update batch (before symmetrization)")
		readers  = flag.String("readers", "1,4", "comma list of concurrent reader counts to sweep")
		duration = flag.Duration("duration", 3*time.Second, "sustained load per run")
		weighted = flag.Bool("weighted", false, "serve aspen.WeightedGraph instead of aspen.Graph")
		algoList = flag.String("algos", "", "comma list of kernels: bfs,cc,sssp (default bfs,cc; bfs,sssp when -weighted)")
		isolate  = flag.Bool("isolate", true, "engine sweep: also run update-only and query-only baselines")
		flat     = flag.Bool("flat", true, "run kernels on the per-version cached flat view (§5.1)")
		prebuild = flag.Bool("prebuild-flat", false, "build each version's flat view on commit instead of lazily on first query")
		patch    = flag.Bool("patch-flat", false, "derive each version's flat view from its predecessor's by O(batch) copy-on-write patching instead of O(n) rebuilds")
		incCC    = flag.Bool("inc-cc", false, "maintain incremental connectivity on the commit path and query it as an extra kernel")
		delmix   = flag.Uint64("delmix", 10, "delete-batch period of the writer schedule: one delete every N batches (10 = the classic 9:1 mix, 2 = delete-heavy expiry)")
		interval = flag.Duration("interval", 0, "pace the writer to one batch per interval (0 = saturate)")
		shards   = flag.String("shards", "", "comma list of shard counts: sweep in-process clusters (1 = the lone-engine baseline)")
		connect  = flag.String("connect", "", "comma list of shardd primary addresses: drive a remote cluster instead of in-process engines")
		readFrom = flag.String("read-from", "", "comma list of shardd replica addresses (one per -connect shard, empty entries allowed)")
		partKind = flag.String("partition", "range", "shard partitioner: range or hash")
		quick    = flag.Bool("quick", false, "tiny smoke-test configuration")
		seed     = flag.Uint64("seed", 42, "rMAT stream seed")

		dataDir  = flag.String("data", "", "durability directory: WAL + checkpoints; recovers existing state on start")
		fsyncPol = flag.String("fsync", "interval", "WAL fsync policy with -data: per-commit, interval, or off")
		ckptEv   = flag.Int("ckpt-every", 256, "checkpoint after this many commits with -data")
		recOnly  = flag.Bool("recover-only", false, "recover -data, report what survived, and exit")
		killN    = flag.Int("killtest", 0, "ingest N deterministic durable batches into -data, printing an ack line per commit (crash-harness mode)")

		obsAddr   = flag.String("obs-addr", "", "observability listen address serving /metrics, /statusz, /healthz and /debug/pprof (empty disables)")
		traceSlow = flag.Duration("trace-slow", 0, "capture per-stage breakdowns of commits slower than this; dumped after each run and served via /statusz (0 disables)")
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
		runRecoverOnly(*dataDir, *weighted)
		return
	}

	mode := modeEngine
	switch {
	case *connect != "":
		mode = modeRemote
	case *shards != "":
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
	readerCounts, err := parseInts(*readers)
	if err != nil {
		fatal("bad -readers: %v", err)
	}
	if *scale < 1 || *scale > 31 {
		fatal("-scale must be in [1, 31] (vertex ids are uint32)")
	}
	if *delmix == 1 {
		fatal("-delmix must be 0 (inserts only) or ≥ 2")
	}
	cfg := config{
		Scale: *scale, InitEdges: *initE, Batch: *batch, Weighted: *weighted,
		Algos: *algoList, Flat: *flat, PrebuildFlat: *prebuild, PatchFlat: *patch,
		IncCC: *incCC, DelPeriod: *delmix,
		Partition: *partKind, Duration: *duration, Seed: *seed,
		Data: *dataDir, Fsync: *fsyncPol, CkptEvery: *ckptEv,
		TraceSlow: *traceSlow,
	}
	kernels(cfg, nil) // reject a bad -algos before any store is built

	// The sweep: every load × pace × deployment.
	sw := sweep{mode: mode, paces: []time.Duration{0}}
	if *interval > 0 {
		sw.paces = append(sw.paces, *interval)
	}
	for _, r := range readerCounts {
		sw.loads = append(sw.loads, load{readers: r, writer: true})
	}
	switch mode {
	case modeEngine:
		// The §7.8 sweep measures one offered load, bracketed by the
		// isolated update and query baselines.
		sw.paces = []time.Duration{*interval}
		sw.deps = []deployment{{name: "single engine"}}
		if *isolate {
			last := readerCounts[len(readerCounts)-1]
			sw.loads = append(append([]load{{writer: true}}, sw.loads...), load{readers: last})
		}
	case modeShards:
		counts, err := parseInts(*shards)
		if err != nil {
			fatal("bad -shards: %v", err)
		}
		sw.deps = shardDeps(counts)
	case modeRemote:
		d := deployment{primaries: splitAddrs(*connect)}
		d.name = fmt.Sprintf("remote %d shards", len(d.primaries))
		if *readFrom != "" {
			d.replicas = splitAddrs(*readFrom)
			if len(d.replicas) != len(d.primaries) {
				fatal("-read-from lists %d addresses for %d shards (use empty entries for shards without replicas)", len(d.replicas), len(d.primaries))
			}
		}
		sw.deps = []deployment{d}
	}

	startObs(*obsAddr)
	fmt.Printf("stream: %s scale=%d init=%d batch=%d weighted=%v algos=%s flat=%v patch=%v inc-cc=%v delmix=%d procs=%d\n",
		mode, *scale, *initE, *batch, *weighted, *algoList, *flat, *patch, *incCC, *delmix, runtime.GOMAXPROCS(0))

	// Graceful shutdown: SIGINT/SIGTERM stops the in-flight run early (the
	// writer quits, submitted batches flush, readers drain) and skips the
	// rest of the sweep; durable engines still close cleanly, writing a
	// final checkpoint.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	var runs []runResult
	if cfg.Weighted {
		runs = runSweep(ctx, cfg, sw, weightedBatch, openWeighted)
	} else {
		runs = runSweep(ctx, cfg, sw, graphBatch, openGraph)
	}
	for _, rr := range runs {
		if rr.Report.SubmitErr != "" {
			fatal("%s: writer stopped early: %s", rr.Name, rr.Report.SubmitErr)
		}
	}
}

// config records the experiment parameters.
type config struct {
	Scale        int
	InitEdges    uint64
	Batch        uint64
	Weighted     bool
	Algos        string
	Flat         bool
	PrebuildFlat bool
	PatchFlat    bool
	IncCC        bool
	DelPeriod    uint64
	Partition    string
	Duration     time.Duration
	Seed         uint64

	// Durability settings (-data empty means in-memory).
	Data      string
	Fsync     string
	CkptEvery int

	// TraceSlow is the -trace-slow slow-commit threshold (0 = off).
	TraceSlow time.Duration
}

func (cfg config) engineOptions() stream.Options {
	return stream.Options{PrebuildFlat: cfg.PrebuildFlat, PatchFlat: cfg.PatchFlat,
		TraceSlow: cfg.TraceSlow}
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

// shardDeps is the -shards sweep: one deployment per count, the lone
// engine (a count of 1) first, so every cluster row of a load and pace
// quotes its speedup against it, whatever order the flag lists them in.
func shardDeps(counts []int) []deployment {
	var lone, clusters []deployment
	for _, s := range counts {
		if s <= 1 {
			lone = append(lone, deployment{name: "single engine", shards: s})
			continue
		}
		clusters = append(clusters, deployment{name: fmt.Sprintf("%d shards", s), shards: s})
	}
	return append(lone, clusters...)
}

// load is the traffic of one run: readers == 0 is the update-only
// baseline, !writer the query-only one.
type load struct {
	readers int
	writer  bool
}

func (l load) String() string {
	switch {
	case !l.writer:
		return fmt.Sprintf("query-only (%d readers)", l.readers)
	case l.readers == 0:
		return "update-only"
	}
	return fmt.Sprintf("%d readers", l.readers)
}

// sweep is the experiment plan: one run per load × pace × deployment.
type sweep struct {
	mode  string
	loads []load
	paces []time.Duration
	deps  []deployment
}

// opened is a store built for one run plus the handles only some
// deployments have.
type opened[E any] struct {
	stream.Store[E]
	health func() error         // fail-stop error of a durable engine; nil elsewhere
	tracer *obs.StageTracer     // commit stage tracer of a lone engine; nil elsewhere
	incCC  *algos.IncrementalCC // standing connectivity under -inc-cc
}

func openedEngine[G ligra.Graph, E any](cfg config, e *stream.Engine[G, E], attachCC func(*stream.Engine[G, E]) *algos.IncrementalCC) opened[E] {
	o := opened[E]{Store: e.Store(), health: e.Err, tracer: e.Tracer()}
	if cfg.IncCC {
		// Attached with ingest quiescent (after any preload flush): the
		// bootstrap covers the initial graph, the commit hook everything
		// after.
		o.incCC = attachCC(e)
	}
	return o
}

// openGraph builds deployment d over unweighted graphs. In-process stores
// load the initial edges outside the serving path, so counters and latency
// digests see only the stream; a durable engine recovers its directory and
// preloads through its own ingest path (WAL-logged like any other batch).
func openGraph(cfg config, d deployment, initial func() []aspen.Edge) opened[aspen.Edge] {
	p, opts := ctree.DefaultParams(), cfg.engineOptions()
	switch {
	case d.primaries != nil:
		c, err := remote.DialGraph(cfg.partitioner(len(d.primaries)), d.primaries, d.replicas, remote.Options{})
		if err != nil {
			fatal("%v", err)
		}
		return opened[aspen.Edge]{Store: c.Store()}
	case d.shards > 1:
		return opened[aspen.Edge]{Store: shard.NewGraphClusterFrom(cfg.partitioner(d.shards), p, initial(), opts).Store()}
	case cfg.Data != "":
		e, err := stream.RecoverGraphEngine(p, opts, cfg.durability())
		if err != nil {
			fatal("recover %s: %v", cfg.Data, err)
		}
		preload(e.Store(), initial())
		return openedEngine(cfg, e, stream.AttachGraphIncrementalCC)
	}
	return openedEngine(cfg, stream.NewGraphEngine(aspen.NewGraph(p).InsertEdges(initial()), opts), stream.AttachGraphIncrementalCC)
}

// openWeighted is openGraph for weighted graphs.
func openWeighted(cfg config, d deployment, initial func() []aspen.WeightedEdge) opened[aspen.WeightedEdge] {
	p, opts := ctree.DefaultParams(), cfg.engineOptions()
	switch {
	case d.primaries != nil:
		c, err := remote.DialWeighted(cfg.partitioner(len(d.primaries)), d.primaries, d.replicas, remote.Options{})
		if err != nil {
			fatal("%v", err)
		}
		return opened[aspen.WeightedEdge]{Store: c.Store()}
	case d.shards > 1:
		return opened[aspen.WeightedEdge]{Store: shard.NewWeightedClusterFrom(cfg.partitioner(d.shards), p, initial(), opts).Store()}
	case cfg.Data != "":
		e, err := stream.RecoverWeightedEngine(p, opts, cfg.durability())
		if err != nil {
			fatal("recover %s: %v", cfg.Data, err)
		}
		preload(e.Store(), initial())
		return openedEngine(cfg, e, stream.AttachWeightedIncrementalCC)
	}
	return openedEngine(cfg, stream.NewWeightedEngine(aspen.NewWeightedGraph().InsertEdges(initial()), opts), stream.AttachWeightedIncrementalCC)
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

// runResult is one entry of the sweep.
type runResult struct {
	Name   string
	Report stream.Report
	// IncCC carries the incremental-connectivity maintenance counters when
	// the run kept a standing algos.IncrementalCC on the commit path.
	IncCC *algos.IncrementalCCStats
}

// runSweep executes the plan over one payload type: batch materializes a
// generator range as updates, open builds a deployment's store.
func runSweep[E any](ctx context.Context, cfg config, sw sweep,
	batch func(gen rmat.Generator, lo, hi uint64) []E,
	open func(cfg config, d deployment, initial func() []E) opened[E]) []runResult {
	gen := rmat.NewGenerator(cfg.Scale, cfg.Seed)
	mk := func(lo, hi uint64) []E { return batch(gen, lo, hi) }
	initial := func() []E { return mk(0, cfg.InitEdges) }
	// An in-process store is rebuilt from the initial graph every run, so
	// each run's schedule restarts past the initial edges; remote servers
	// keep their state, so one schedule's cursor spans the sweep (Workload
	// restarts its batch index at 0 every run; the wrapper counts calls).
	schedule := func() func(uint64) (bool, []E) {
		return stream.UpdateScheduleMix(cfg.InitEdges, cfg.Batch, cfg.DelPeriod, mk)
	}
	if sw.mode == modeRemote {
		inner, calls := stream.UpdateScheduleMix(0, cfg.Batch, cfg.DelPeriod, mk), uint64(0)
		one := func(uint64) (bool, []E) { calls++; return inner(calls - 1) }
		schedule = func() func(uint64) (bool, []E) { return one }
	}

	var runs []runResult
	for _, pace := range sw.paces {
		mode := "saturated"
		if pace > 0 {
			mode = fmt.Sprintf("paced %v", pace)
		}
		for _, ld := range sw.loads {
			// Speedups are quoted against the lone-engine run of the same
			// load and pace — like against like; shardDeps runs it first.
			var base float64
			for _, d := range sw.deps {
				if ctx.Err() != nil {
					fmt.Println("stream: interrupted, skipping remaining runs")
					return runs
				}
				o := open(cfg, d, initial)
				mountObs(o)
				w := stream.Workload[E]{
					Store: o, Readers: ld.readers, Kernels: kernels(cfg, o.incCC),
					Duration: cfg.Duration, Interval: pace,
					UseFlat: cfg.Flat, Stop: ctx.Done(),
				}
				if ld.writer {
					w.NextBatch = schedule()
				}
				rr := runResult{Name: fmt.Sprintf("%s, %s, %s", d.name, ld, mode), Report: w.Run()}
				if o.incCC != nil {
					st := o.incCC.Stats()
					rr.IncCC = &st
				}
				if rr.Report.Shards == 1 {
					base = rr.Report.UpdatesPerSec
				}
				printRun(rr, base)
				if o.tracer != nil && cfg.TraceSlow > 0 {
					dumpSlowTraces(o.tracer, cfg.TraceSlow)
				}
				closeStore(cfg, o)
				runs = append(runs, rr)
			}
		}
	}
	return runs
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

func printRun(rr runResult, base float64) {
	r := rr.Report
	fmt.Printf("\n== %s ==\n", rr.Name)
	if r.Updates > 0 {
		across, worst, speed := "", "", ""
		if r.Shards > 1 {
			across, worst = fmt.Sprintf(" across %d shards", r.Shards), " (worst shard)"
			if base > 0 {
				speed = fmt.Sprintf(" (%.2fx vs single engine)", r.UpdatesPerSec/base)
			}
		}
		fmt.Printf("updates: %.3g edges/sec%s (%d edges, %d batches, %d commits%s, coalesce %.2f)\n",
			r.UpdatesPerSec, speed, r.Updates, r.Batches, r.Commits, across, r.Coalesce)
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
	if rr.IncCC != nil {
		fmt.Printf("inc-cc: %d unions, %d delete recomputes, %d vertices reverified\n",
			rr.IncCC.Unions, rr.IncCC.Recomputes, rr.IncCC.Reverified)
	}
	if r.SubmitErr != "" {
		fmt.Printf("SUBMIT ERROR (writer stopped early): %s\n", r.SubmitErr)
	}
	if r.StatsErr != "" {
		fmt.Printf("STATS ERROR (counts miss these shards): %s\n", r.StatsErr)
	}
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		if n < 0 {
			return nil, fmt.Errorf("negative count %d", n)
		}
		out = append(out, n)
	}
	return out, nil
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
