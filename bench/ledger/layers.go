package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/algos"
	"repro/internal/aspen"
	"repro/internal/ctree"
	"repro/internal/ligra"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/shard"
	"repro/internal/stream"
	"repro/internal/wal"
)

// runtimeRead is one reading of the Go runtime's own cost counters.
type runtimeRead struct {
	allocs   uint64  // heap objects allocated
	gcCPU    float64 // CPU seconds spent collecting
	totalCPU float64 // CPU seconds available to the process
	pauseNs  uint64  // stop-the-world pause total
}

func readRuntime() runtimeRead {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeRead{s[0].Value.Uint64(), s[1].Value.Float64(), s[2].Value.Float64(), ms.PauseTotalNs}
}

func (r runtimeRead) sub(o runtimeRead) runtimeRead {
	return runtimeRead{r.allocs - o.allocs, r.gcCPU - o.gcCPU, r.totalCPU - o.totalCPU, r.pauseNs - o.pauseNs}
}

// layerReport turns one traced run's records and counter differences into
// the per-layer metrics.
type layerReport struct {
	w      workload
	cfg    runConfig
	paced  *phaseResult
	sat    *phaseResult
	reads  *queryResult
	pacedC counters // counter differences over the paced phase
	satC   counters // ... and over the saturated phase
	rt     runtimeRead
	in     inputs
	spans  []span
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// spanMedians returns the median duration in ms of every span name among
// the children of roots named root, and the roots' own median.
func spanMedians(spans []span, root string) (byName map[string]float64, rootMs float64) {
	durs := map[string][]float64{}
	var roots []float64
	for _, s := range spans {
		switch {
		case s.Parent < 0 && s.Name == root:
			roots = append(roots, float64(s.End-s.Start)/1e6)
		case s.Parent >= 0 && spans[s.Parent].Name == root:
			durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start)/1e6)
		}
	}
	byName = map[string]float64{}
	for name, d := range durs {
		byName[name] = percentile(d, 0.50)
	}
	return byName, percentile(roots, 0.50)
}

// fill computes every per-layer metric into m.
func (r *layerReport) fill(m map[string]float64, samples map[string]int) error {
	m["traced_visible_p50_ms"] = m["visible_p50_ms"]
	m["traced_query_p50_ms"] = m["query_p50_ms"]

	// Generator: how late it ran and what it left behind.
	var late, satSubmit []float64
	for i, t := range r.paced.times {
		late = append(late, float64(t.sent-t.due)/1e6)
		if !t.failed {
			r.spans = t.spans(i, r.spans)
		}
	}
	for _, t := range r.sat.times {
		satSubmit = append(satSubmit, float64(t.submitted-t.sent)/1e6)
	}
	m["gen_late_p99_ms"] = percentile(late, 0.99)
	// The phase ends when the last batch's latency limit runs out: a batch
	// still invisible then is backlog the rate left behind, not jitter.
	lastDue := r.paced.times[len(r.paced.times)-1].due
	m["paced_backlog_end"] = float64(r.paced.backlog(lastDue + int64(visibleLimit)))
	m["span_sat_submit_p50_ms"] = percentile(satSubmit, 0.50)

	// Blocking path of a paced batch.
	by, root := spanMedians(r.spans, "batch")
	sum := 0.0
	for _, name := range []string{"sched", "submit", "ack_wait", "pin"} {
		m["span_"+name+"_p50_ms"] = by[name]
		sum += by[name]
	}
	m["visible_path_share"] = ratio(sum, root)

	// Blocking path of a query, the flat call split by what it had to do.
	var flats []float64
	var outcomes [len(flatOutcomeNames)]int
	for i, t := range r.reads.times {
		r.spans = t.spans(i, r.spans)
		flats = append(flats, float64(t.flat-t.pinned)/1e6)
		outcomes[t.outcome]++
	}
	by, root = spanMedians(r.spans, "query")
	flatMs := percentile(flats, 0.50)
	for i, name := range flatOutcomeNames[1:] {
		m["span_flat_"+name+"_p50_ms"] = by["flat."+name]
		samples["flat_"+name] = outcomes[i+1]
	}
	m["span_begin_p50_ms"] = by["begin"]
	m["span_flat_p50_ms"] = flatMs
	m["span_kernel_bfs_p50_ms"] = by["kernel.bfs"]
	m["span_kernel_cc_p50_ms"] = by["kernel.cc"]
	m["span_close_p50_ms"] = by["close"]
	m["query_path_share"] = ratio(by["begin"]+flatMs+by["kernel.bfs"]+by["kernel.cc"]+by["close"], root)

	// stream: mean time per commit in each stage of the paced phase, and
	// how many batches one saturated commit folded.
	for s := 0; s < obs.NumStages; s++ {
		if obs.Stage(s) == obs.StageFlatPatch {
			continue // runs only under PrebuildFlat, which no workload sets
		}
		mean := ratio(float64(r.pacedC.stageSum[s])/1e6, float64(r.pacedC.stageN[s]))
		m["stage_"+obs.Stage(s).String()+"_ms"] = mean
	}
	m["coalesce_factor"] = ratio(float64(r.satC.batches), float64(r.satC.commits))
	m["apply_busy_share"] = ratio(r.satC.stageSum[obs.StageApply].Seconds(), r.sat.elapsed.Seconds())

	// Flat cache: queries served without building or patching a view.
	m["flat_hit_ratio"] = ratio(float64(outcomes[flatHit]), float64(len(r.reads.times)))

	// wal + graphio, over both write phases.
	edges := float64(directedEdges(r.in.paced) + directedEdges(r.in.saturated))
	m["wal_bytes_per_edge"] = float64(r.pacedC.walBytes+r.satC.walBytes) / edges
	m["wal_fsyncs"] = float64(r.pacedC.walSyncs + r.satC.walSyncs)
	m["checkpoints"] = float64(r.pacedC.checkpoints + r.satC.checkpoints)

	// shard + rpc client.
	cl := r.pacedC.client
	m["range_rpcs"] = float64(cl.RangeRPCs)
	m["view_hit_ratio"] = ratio(float64(cl.ViewHits), float64(cl.ViewHits+cl.ViewFetches))
	m["retries"] = float64(cl.Retries + r.satC.client.Retries)
	m["dedup_acks"] = float64(cl.DedupAcks + r.satC.client.DedupAcks)

	// Go runtime, over both write phases.
	m["allocs_per_edge"] = float64(r.rt.allocs) / edges
	m["gc_cpu_share"] = ratio(r.rt.gcCPU, r.rt.totalCPU)
	m["gc_pause_ms"] = float64(r.rt.pauseNs) / 1e6

	return probes(m, r.in, r.cfg)
}

// medianOf times f reps times and returns the median in the unit scale
// (time.Microsecond gives µs).
func medianOf(reps int, unit time.Duration, f func()) float64 {
	d := make([]float64, reps)
	for i := range d {
		t0 := time.Now()
		f()
		d[i] = float64(time.Since(t0)) / float64(unit)
	}
	return percentile(d, 0.50)
}

// sink keeps probe results alive so the calls are not optimised away.
var sink int

// probes measures each layer alone, from outside, on the run's own inputs —
// the numbers a layer-local change should move first — into m.
func probes(m map[string]float64, in inputs, cfg runConfig) error {
	p := ctree.DefaultParams()
	bs := append(append([]batch(nil), in.paced...), in.saturated...)
	if len(bs) > 500 {
		bs = bs[:500]
	}

	// aspen + ctree + encoding: batch apply on the bare graph.
	base := aspen.NewGraph(p).InsertEdges(in.preload)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	g, t0 := base, time.Now()
	for _, b := range bs {
		if b.del {
			g = g.DeleteEdges(b.edges)
		} else {
			g = g.InsertEdges(b.edges)
		}
	}
	took := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	m["probe_apply_us_per_batch"] = float64(took.Microseconds()) / float64(len(bs))
	m["probe_apply_allocs_per_edge"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(directedEdges(bs))

	// aspen flat views: build, patch across one batch, diff of one batch.
	var fs *aspen.FlatSnapshot
	m["probe_flat_build_ms"] = medianOf(5, time.Millisecond, func() { fs = aspen.BuildFlatSnapshot(base) })
	next := base.InsertEdges(bs[0].edges)
	m["probe_flat_patch_ms"] = medianOf(20, time.Millisecond, func() { sink += aspen.PatchFlatSnapshot(fs, next).Order() })
	m["probe_diff_ms"] = medianOf(20, time.Millisecond, func() {
		aspen.DiffVersions(base, next, func(aspen.VertexDelta[struct{}]) bool { sink++; return true })
	})

	// ligra + algos: the two kernels on a flat and on a tree snapshot.
	for _, v := range []struct {
		name string
		g    ligra.Graph
	}{{"flat", fs}, {"tree", base}} {
		m["probe_bfs_"+v.name+"_ms"] = medianOf(5, time.Millisecond, func() { sink += algos.BFS(v.g, bfsSources[0], false).Visited })
		m["probe_cc_"+v.name+"_ms"] = medianOf(5, time.Millisecond, func() { sink += len(algos.ConnectedComponents(v.g)) })
	}

	// wal: one record of a batch's size appended and fsynced.
	var err error
	if m["probe_wal_sync_us"], err = probeWAL(cfg.dataDir, bs[0].edges); err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}

	// shard: routing a batch, and how unevenly rMAT's skew loads the ranges.
	part := shard.NewRangePartitioner(remoteShards, 1<<cfg.sh.scale)
	var perShard [remoteShards]int
	t0 = time.Now()
	for _, b := range bs {
		for s, sub := range shard.Route(part, b.edges, shard.EdgeSource) {
			perShard[s] += len(sub)
		}
	}
	m["probe_route_us"] = float64(time.Since(t0).Microseconds()) / float64(len(bs))
	m["probe_route_skew"] = ratio(float64(max(perShard[0], perShard[1]))*remoteShards, float64(perShard[0]+perShard[1]))

	// rpc: one submit frame of a batch's size encoded, then decoded.
	var enc rpc.Encoder
	w := stream.EdgeCodec.Width
	m["probe_frame_us"] = medianOf(200, time.Microsecond, func() {
		if err != nil {
			return
		}
		edges := bs[0].edges
		enc.Begin(rpc.VerbSubmit, 0, 1)
		enc.U64(1)
		enc.U64(1)
		enc.U32(uint32(len(edges)))
		buf := enc.Reserve(w * len(edges))
		for i, e := range edges {
			stream.EdgeCodec.Encode(buf[i*w:], e)
		}
		var frame []byte
		if frame, err = enc.Finish(); err != nil {
			return
		}
		var msg rpc.Msg
		if msg, err = rpc.NewReader(bytes.NewReader(frame)).Next(); err != nil {
			return
		}
		d := rpc.NewBody(msg.Body)
		d.U64()
		d.U64()
		raw := d.Bytes(int(d.U32()) * w)
		for i := 0; i+w <= len(raw); i += w {
			sink += int(stream.EdgeCodec.Decode(raw[i:]).Dst)
		}
		err = d.Err()
	})
	if err != nil {
		return fmt.Errorf("frame probe: %w", err)
	}
	return nil
}

// probeWAL appends and fsyncs a record of edges' size a hundred times in a
// scratch log and returns the median in µs.
func probeWAL(dataDir string, edges []aspen.Edge) (float64, error) {
	dir, err := os.MkdirTemp(dataDir, "ledger-walprobe-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	log, err := wal.Open(dir, 1, wal.Options{})
	if err != nil {
		return 0, err
	}
	defer log.Close()
	w := stream.EdgeCodec.Width
	buf := make([]byte, w*len(edges))
	for i, e := range edges {
		stream.EdgeCodec.Encode(buf[i*w:], e)
	}
	us := medianOf(100, time.Microsecond, func() {
		if err != nil {
			return
		}
		if _, err = log.Append(wal.Insert, uint8(w), uint32(len(edges)), buf); err == nil {
			err = log.Sync()
		}
	})
	return us, err
}

// traceFile is what a traced run leaves in out/trace-<workload>.json.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Seconds  int                `json:"seconds"`
	Metrics  map[string]float64 `json:"metrics"`
	// Spans holds the paced batches' spans, then the queries'; a span's
	// Parent indexes this array.
	Spans []span `json:"spans"`
}

func (r *layerReport) writeTrace(path string, m map[string]float64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	for i, self := range selfTimes(r.spans) {
		r.spans[i].Self = self
	}
	out, err := json.Marshal(traceFile{r.w.name, r.cfg.seed, r.cfg.seconds, m, r.spans})
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return os.WriteFile(path, out, 0o644)
}
